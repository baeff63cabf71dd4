//! 802.11 frame-synchronous scrambler.
//!
//! The DATA field is whitened with the length-127 sequence generated by
//! x⁷ + x⁴ + 1 (802.11-2016 §17.3.5.5). The scrambler state is seeded per
//! PPDU (7-bit nonzero initial state carried in the SERVICE field);
//! descrambling is the same operation with the same seed.

/// The scrambler/descrambler LFSR.
#[derive(Debug, Clone)]
pub struct Scrambler {
    state: u8, // 7-bit state
}

impl Scrambler {
    /// Create with a 7-bit seed.
    ///
    /// # Panics
    /// Panics if `seed` is zero or wider than 7 bits (an all-zero state
    /// would emit a constant zero sequence and never whiten anything).
    pub fn new(seed: u8) -> Self {
        assert!(
            seed != 0 && seed < 0x80,
            "scrambler seed must be 7-bit nonzero"
        );
        Scrambler { state: seed }
    }

    /// Next scrambling bit: x⁷ ⊕ x⁴ fed back.
    pub fn next_bit(&mut self) -> u8 {
        let fb = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | fb) & 0x7F;
        fb
    }

    /// Scramble (or descramble) a bit slice in place.
    pub fn apply(&mut self, bits: &mut [u8]) {
        for b in bits.iter_mut() {
            debug_assert!(*b <= 1, "bits must be 0/1");
            *b ^= self.next_bit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_period_is_127() {
        let mut s = Scrambler::new(1);
        let first: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        let second: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        assert_eq!(first, second);
        // And it's not a shorter period:
        assert_ne!(&first[..64], &first[63..127]);
    }

    #[test]
    fn standard_seed_1011101_prefix() {
        // 802.11-2016 §17.3.5.5: with all-ones seed the first 16 bits of
        // the sequence are 0000 1110 1111 0010.
        let mut s = Scrambler::new(0x7F);
        let bits: Vec<u8> = (0..16).map(|_| s.next_bit()).collect();
        assert_eq!(bits, [0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn scramble_descramble_roundtrip() {
        let data: Vec<u8> = (0..200).map(|i| (i % 3 == 0) as u8).collect();
        let mut scrambled = data.clone();
        Scrambler::new(0x5D).apply(&mut scrambled);
        assert_ne!(scrambled, data);
        Scrambler::new(0x5D).apply(&mut scrambled);
        assert_eq!(scrambled, data);
    }

    #[test]
    fn whitens_constant_input() {
        let mut bits = vec![0u8; 127];
        Scrambler::new(0x11).apply(&mut bits);
        let ones: usize = bits.iter().map(|&b| b as usize).sum();
        // m-sequence has 64 ones in a 127-bit period.
        assert_eq!(ones, 64);
    }

    #[test]
    #[should_panic(expected = "7-bit nonzero")]
    fn zero_seed_rejected() {
        let _ = Scrambler::new(0);
    }
}
