//! CRC-32 (802.11 FCS) and CRC-8 (A-MPDU delimiter signature).
//!
//! * CRC-32: the IEEE 802.3 polynomial `0x04C11DB7` (reflected form
//!   `0xEDB88320`), init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF` — exactly
//!   the FCS appended to every 802.11 MPDU. A corrupted subframe is
//!   detected at the AP by this check failing, which is the signal WiTAG's
//!   block-ACK channel is built on.
//! * CRC-8: polynomial `x⁸+x²+x+1` (`0x07`), init 0, no final XOR — the
//!   802.11n MPDU delimiter CRC that protects the 16-bit length/reserved
//!   fields so a receiver can walk an A-MPDU even when an MPDU body is
//!   garbage.

/// Reflected CRC-32 table for polynomial 0xEDB88320, built at first use.
fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// Compute the IEEE CRC-32 over `data` (as used by the 802.11 FCS).
///
/// ```
/// // Standard check value: CRC-32 of "123456789" is 0xCBF43926.
/// assert_eq!(witag_crypto::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append the 4-byte little-endian FCS to a frame body, returning the
/// on-air MPDU bytes.
pub fn with_fcs(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

/// Check the trailing FCS of an on-air MPDU; returns the body on success.
pub fn verify_fcs(frame: &[u8]) -> Option<&[u8]> {
    if frame.len() < 4 {
        return None;
    }
    let (body, fcs) = frame.split_at(frame.len() - 4);
    let expected = u32::from_le_bytes([fcs[0], fcs[1], fcs[2], fcs[3]]);
    (crc32(body) == expected).then_some(body)
}

/// Compute the 802.11n delimiter CRC-8 (poly 0x07, init 0) over `data`.
///
/// The real delimiter computes this over the 16 length/reserved bits; we
/// expose the general byte-oriented form and let the MAC crate feed it the
/// packed delimiter fields.
pub fn crc8(data: &[u8]) -> u8 {
    let mut c = 0u8;
    for &b in data {
        c ^= b;
        for _ in 0..8 {
            c = if c & 0x80 != 0 {
                (c << 1) ^ 0x07
            } else {
                c << 1
            };
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_empty() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"The quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn fcs_roundtrip() {
        let body = b"mpdu body bytes";
        let frame = with_fcs(body);
        assert_eq!(frame.len(), body.len() + 4);
        assert_eq!(verify_fcs(&frame), Some(&body[..]));
    }

    #[test]
    fn fcs_rejects_corruption() {
        let mut frame = with_fcs(b"payload");
        frame[2] ^= 0x40;
        assert_eq!(verify_fcs(&frame), None);
    }

    #[test]
    fn fcs_rejects_short_frames() {
        assert_eq!(verify_fcs(&[1, 2, 3]), None);
    }

    #[test]
    fn crc8_known_vectors() {
        // CRC-8/SMBUS style (poly 0x07, init 0): crc8("123456789") = 0xF4.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(b""), 0);
        assert_eq!(crc8(&[0x00]), 0x00);
        assert_eq!(crc8(&[0xFF]), 0xF3);
    }

    #[test]
    fn crc8_detects_delimiter_bit_flips() {
        let fields = [0x3Au8, 0x0F];
        let base = crc8(&fields);
        for byte in 0..2 {
            for bit in 0..8 {
                let mut f = fields;
                f[byte] ^= 1 << bit;
                assert_ne!(crc8(&f), base);
            }
        }
    }
}
