//! RC4 stream cipher — the keystream generator behind WEP.
//!
//! Included only so the WEP path is real; RC4 is broken and must never be
//! used for new systems. The WiTAG reproduction uses it to show the
//! protocol working unchanged over legacy encrypted networks (paper §1
//! requirement "Work with Encryption").

/// RC4 keystream generator.
pub struct Rc4 {
    s: [u8; 256],
    i: u8,
    j: u8,
}

impl Rc4 {
    /// Key-schedule from a key of 1–256 bytes.
    ///
    /// # Panics
    /// Panics on an empty or over-long key.
    pub fn new(key: &[u8]) -> Self {
        assert!(
            !key.is_empty() && key.len() <= 256,
            "RC4 key must be 1-256 bytes"
        );
        let mut s: [u8; 256] = core::array::from_fn(|i| i as u8);
        let mut j: u8 = 0;
        for i in 0..256 {
            j = j.wrapping_add(s[i]).wrapping_add(key[i % key.len()]);
            s.swap(i, j as usize);
        }
        Rc4 { s, i: 0, j: 0 }
    }

    /// Next keystream byte.
    pub fn next_byte(&mut self) -> u8 {
        self.i = self.i.wrapping_add(1);
        self.j = self.j.wrapping_add(self.s[self.i as usize]); // lint:allow(panic_path) u8 index into [u8; 256]
        self.s.swap(self.i as usize, self.j as usize);
        let idx = self.s[self.i as usize].wrapping_add(self.s[self.j as usize]); // lint:allow(panic_path) u8 index into [u8; 256]
        self.s[idx as usize] // lint:allow(panic_path) u8 index into [u8; 256]
    }

    /// XOR the keystream into `data` (encrypt == decrypt).
    pub fn apply(&mut self, data: &mut [u8]) {
        for b in data.iter_mut() {
            *b ^= self.next_byte();
        }
    }
}

impl core::fmt::Debug for Rc4 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Rc4 {{ .. }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector_key_key() {
        // RFC 6229-adjacent classic vector: key "Key", pt "Plaintext"
        // -> BBF316E8D940AF0AD3.
        let mut rc4 = Rc4::new(b"Key");
        let mut data = b"Plaintext".to_vec();
        rc4.apply(&mut data);
        assert_eq!(data, [0xBB, 0xF3, 0x16, 0xE8, 0xD9, 0x40, 0xAF, 0x0A, 0xD3]);
    }

    #[test]
    fn known_vector_wiki() {
        // key "Wiki", pt "pedia" -> 1021BF0420.
        let mut rc4 = Rc4::new(b"Wiki");
        let mut data = b"pedia".to_vec();
        rc4.apply(&mut data);
        assert_eq!(data, [0x10, 0x21, 0xBF, 0x04, 0x20]);
    }

    #[test]
    fn apply_twice_is_identity() {
        let mut a = Rc4::new(b"secret");
        let mut b = Rc4::new(b"secret");
        let original = b"some longer message body for the stream cipher".to_vec();
        let mut data = original.clone();
        a.apply(&mut data);
        assert_ne!(data, original);
        b.apply(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    #[should_panic(expected = "1-256 bytes")]
    fn empty_key_panics() {
        let _ = Rc4::new(b"");
    }
}
