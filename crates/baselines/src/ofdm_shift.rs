//! FreeRider and MOXcatter: OFDM codeword translation, functionally.
//!
//! FreeRider (CoNEXT'17) extends HitchHike's trick to 802.11g OFDM: the
//! tag phase-rotates the *backscattered copy* of each OFDM symbol by 0°
//! or 180° (one tag bit per symbol), shifting it to a second channel
//! where a helper AP captures it; the host recovers tag bits by
//! comparing the two copies. MOXcatter (MobiSys'18) faces 802.11n MIMO,
//! where per-symbol rotation of spatially-multiplexed streams is not
//! decodable, so it falls back to one tag bit per *packet*.
//!
//! These models run on the reproduction's real legacy OFDM PPDUs: the
//! rotation, the two-receiver comparison, the noise behaviour, and —
//! crucially for the paper's §2 argument — the throughput collapse from
//! per-symbol to per-packet embedding, and the same FCS/encryption
//! incompatibilities as HitchHike (the tag bits live in payload symbols).

use witag_phy::complex::Complex64;
use witag_phy::legacy::LegacyPpdu;
use witag_phy::ppdu::OfdmSymbol;
use witag_sim::rng::Rng;

/// Apply FreeRider's per-symbol phase translation to a backscattered
/// copy: symbol `i` is rotated 180° iff `tag_bits[i] == 1`.
pub fn freerider_translate(ppdu: &LegacyPpdu, tag_bits: &[u8]) -> LegacyPpdu {
    let symbols = ppdu
        .symbols
        .iter()
        .enumerate()
        .map(|(i, sym)| {
            let flip = tag_bits.get(i).copied().unwrap_or(0) == 1;
            OfdmSymbol {
                streams: sym
                    .streams
                    .iter()
                    .map(|carriers| {
                        carriers
                            .iter()
                            .map(|&c| if flip { -c } else { c })
                            .collect()
                    })
                    .collect(),
            }
        })
        .collect();
    LegacyPpdu {
        rate: ppdu.rate,
        psdu_len: ppdu.psdu_len,
        ltf: ppdu.ltf.clone(),
        symbols,
    }
}

/// MOXcatter's per-packet embedding: the whole PPDU is rotated by the one
/// tag bit.
pub fn moxcatter_translate(ppdu: &LegacyPpdu, tag_bit: u8) -> LegacyPpdu {
    freerider_translate(ppdu, &vec![tag_bit; ppdu.symbols.len()])
}

/// The helper-AP + host comparison: recover per-symbol tag bits by
/// correlating each backscattered symbol against the original copy.
/// Both copies must be available — the second-AP requirement.
pub fn recover_symbol_rotations(original: &LegacyPpdu, shifted: &LegacyPpdu) -> Vec<u8> {
    original
        .symbols
        .iter()
        .zip(shifted.symbols.iter())
        .map(|(o, s)| {
            let corr: Complex64 = o.streams[0]
                .iter()
                .zip(s.streams[0].iter())
                .map(|(&a, &b)| b * a.conj())
                .sum();
            u8::from(corr.re < 0.0)
        })
        .collect()
}

/// Tag bits per excitation packet for each design — the §2 throughput
/// story in one function. WiTAG rides subframes (≤ 64/packet); FreeRider
/// rides OFDM symbols; MOXcatter gets one bit per packet.
pub fn bits_per_packet(n_symbols: usize, witag_subframes: usize) -> (usize, usize, usize) {
    (witag_subframes, n_symbols, 1)
}

/// Add AWGN to every subcarrier of a copy (the backscattered path is
/// much weaker than the direct one; callers pass its post-processing
/// effective noise).
pub fn add_noise(ppdu: &LegacyPpdu, noise_std: f64, rng: &mut Rng) -> LegacyPpdu {
    let perturb = |carriers: &[Complex64], rng: &mut Rng| -> Vec<Complex64> {
        carriers
            .iter()
            .map(|&c| c + witag_phy::c64(rng.gaussian() * noise_std, rng.gaussian() * noise_std))
            .collect()
    };
    LegacyPpdu {
        rate: ppdu.rate,
        psdu_len: ppdu.psdu_len,
        ltf: OfdmSymbol {
            streams: vec![perturb(&ppdu.ltf.streams[0], rng)],
        },
        symbols: ppdu
            .symbols
            .iter()
            .map(|s| OfdmSymbol {
                streams: vec![perturb(&s.streams[0], rng)],
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_phy::legacy::{legacy_receive, legacy_transmit, LegacyRate};

    fn excitation(len: usize) -> LegacyPpdu {
        legacy_transmit(LegacyRate::M12, &vec![0xC5u8; len])
    }

    #[test]
    fn freerider_roundtrip_clean() {
        let ppdu = excitation(100);
        let tag_bits: Vec<u8> = (0..ppdu.symbols.len())
            .map(|i| (i % 3 == 0) as u8)
            .collect();
        let shifted = freerider_translate(&ppdu, &tag_bits);
        assert_eq!(recover_symbol_rotations(&ppdu, &shifted), tag_bits);
    }

    #[test]
    fn freerider_survives_noise() {
        let mut rng = Rng::seed_from_u64(41);
        let ppdu = excitation(200);
        let tag_bits: Vec<u8> = (0..ppdu.symbols.len())
            .map(|_| (rng.next_u64() & 1) as u8)
            .collect();
        let shifted = add_noise(&freerider_translate(&ppdu, &tag_bits), 0.15, &mut rng);
        let recovered = recover_symbol_rotations(&ppdu, &shifted);
        let errors = recovered
            .iter()
            .zip(tag_bits.iter())
            .filter(|(a, b)| a != b)
            .count();
        // 48-subcarrier correlation has huge processing gain.
        assert_eq!(errors, 0, "noise must not break symbol correlation");
    }

    #[test]
    fn moxcatter_one_bit_per_packet() {
        let ppdu = excitation(100);
        for bit in [0u8, 1] {
            let shifted = moxcatter_translate(&ppdu, bit);
            let rotations = recover_symbol_rotations(&ppdu, &shifted);
            assert!(rotations.iter().all(|&b| b == bit));
        }
    }

    #[test]
    fn shifted_copy_is_undecodable_as_a_frame() {
        // The backscattered copy no longer decodes to the original PSDU
        // (the rotations corrupt the payload), so a stock AP would FCS-
        // drop it — the same §2 incompatibility as HitchHike, now shown
        // on real OFDM.
        let psdu = vec![0x3Au8; 150];
        let ppdu = legacy_transmit(LegacyRate::M12, &psdu);
        let tag_bits: Vec<u8> = (0..ppdu.symbols.len()).map(|i| (i % 2) as u8).collect();
        let shifted = freerider_translate(&ppdu, &tag_bits);
        let decoded = legacy_receive(&shifted, 1e-6);
        assert_ne!(
            decoded, psdu,
            "translated copy must not decode to the original"
        );
    }

    #[test]
    fn throughput_ordering_matches_section2() {
        // Per excitation packet: FreeRider >= WiTAG >> MOXcatter — but
        // FreeRider needs a second AP, a shifted channel, and an open
        // network; the requirements matrix carries those columns.
        let ppdu = excitation(1500);
        let (witag, freerider, mox) = bits_per_packet(ppdu.symbols.len(), 64);
        assert!(freerider > witag);
        assert!(witag > mox);
        assert_eq!(mox, 1);
    }
}
