//! A functional 802.11b DSSS link and the HitchHike codeword-translation
//! tag — the baseline WiTAG's §2 contrasts itself against.
//!
//! 802.11b at 1 Mbps spreads each data bit over an 11-chip Barker code
//! with differential BPSK. HitchHike's insight ("codeword translation"):
//! inverting the phase of the backscattered chips maps a valid DBPSK
//! symbol onto the *other* valid symbol, so the shifted copy decodes as
//! `data ⊕ tag` and the host recovers the tag bits by XOR against the
//! original packet heard on the primary channel.
//!
//! The model captures exactly what the reproduction needs:
//!
//! * the tag bits ride *inside the payload bits*, so the backscattered
//!   copy's FCS fails and, on protected networks, so does the ICV/MIC —
//!   the encryption incompatibility (§2, item 1–2);
//! * decoding needs the original *and* the shifted copy (second AP);
//! * the translation itself is faithful: chip-level phase inversion.

use witag_crypto::{crc32, Rc4};
use witag_phy::complex::{c64, Complex64};
use witag_sim::rng::Rng;

/// The 11-chip Barker sequence used by 802.11b.
pub const BARKER11: [i8; 11] = [1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1];

/// Spread one bit stream to Barker chips with DBPSK (differential
/// encoding: a `1` flips the phase of the previous symbol).
pub fn spread(bits: &[u8]) -> Vec<Complex64> {
    let mut chips = Vec::with_capacity(bits.len() * 11);
    let mut phase = 1.0f64;
    for &b in bits {
        if b == 1 {
            phase = -phase;
        }
        for &c in BARKER11.iter() {
            chips.push(c64(phase * c as f64, 0.0));
        }
    }
    chips
}

/// Despread chips back to bits (correlate with Barker, then differential
/// decode).
pub fn despread(chips: &[Complex64]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(chips.len() / 11);
    let mut prev = 1.0f64;
    for sym in chips.chunks(11) {
        if sym.len() < 11 {
            break;
        }
        let corr: f64 = sym
            .iter()
            .zip(BARKER11.iter())
            .map(|(c, &b)| c.re * b as f64)
            .sum();
        let sign = if corr >= 0.0 { 1.0 } else { -1.0 };
        bits.push(u8::from(sign != prev));
        prev = sign;
    }
    bits
}

/// HitchHike tag: phase-invert chips so the DBPSK decode becomes
/// `data ⊕ tag` ("codeword translation"). One tag bit per DSSS symbol.
///
/// DBPSK decodes phase *transitions*, so to XOR tag bit `i` into decoded
/// bit `i` the tag must flip the absolute phase of every symbol from `i`
/// onward — i.e. apply the differentially-encoded (running-XOR) tag
/// stream. That running XOR is exactly what HitchHike's toggling RF
/// switch produces naturally.
pub fn codeword_translate(chips: &[Complex64], tag_bits: &[u8]) -> Vec<Complex64> {
    let mut state = false; // differential encoder state
    chips
        .chunks(11)
        .enumerate()
        .flat_map(|(i, sym)| {
            if tag_bits.get(i).copied().unwrap_or(0) == 1 {
                state = !state;
            }
            let flip = state;
            sym.iter()
                .map(move |&c| if flip { -c } else { c })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Recover tag bits by XOR of the original and backscattered decodes —
/// the two-AP + host comparison HitchHike requires.
pub fn recover_tag_bits(original: &[u8], backscattered: &[u8]) -> Vec<u8> {
    original
        .iter()
        .zip(backscattered.iter())
        .map(|(a, b)| a ^ b)
        .collect()
}

/// Outcome of delivering a HitchHike-modified frame to an AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitchhikeDelivery {
    /// Open network, modified AP that ignores FCS failures: tag data
    /// recoverable.
    RecoveredWithModifiedAp,
    /// Open network, *unmodified* AP: frame dropped (FCS fail).
    DroppedByFcs,
    /// WEP/WPA network: payload no longer decrypts/verifies.
    RejectedByCrypto,
}

/// Simulate delivering a payload whose bits were XOR-modified by a tag to
/// an AP, under the given network protection.
///
/// `wep_key`: `Some` simulates a WEP network (RC4 + ICV); `None` an open
/// one. `ap_modified`: whether the AP accepts FCS-failing frames (the
/// modification HitchHike needs).
pub fn deliver_modified_frame(
    payload: &[u8],
    tag_bits_applied: bool,
    wep_key: Option<&[u8]>,
    ap_modified: bool,
) -> HitchhikeDelivery {
    // Build the on-air body: [payload ‖ FCS], optionally WEP-wrapped.
    let (mut body, protected) = match wep_key {
        Some(key) => {
            let mut pt = payload.to_vec();
            pt.extend_from_slice(&crc32(payload).to_le_bytes()); // ICV
            let mut seed = vec![0u8, 0, 0];
            seed.extend_from_slice(key);
            Rc4::new(&seed).apply(&mut pt);
            (pt, true)
        }
        None => (payload.to_vec(), false),
    };
    let fcs = crc32(&body);

    if tag_bits_applied {
        // The tag flipped payload bits on the *backscattered copy*.
        body[0] ^= 0xFF;
    }

    // Unmodified APs check the FCS first.
    if crc32(&body) != fcs && !ap_modified {
        return HitchhikeDelivery::DroppedByFcs;
    }
    if protected {
        // Decrypt and verify ICV.
        let mut seed = vec![0u8, 0, 0];
        seed.extend_from_slice(wep_key.unwrap());
        let mut pt = body.clone();
        Rc4::new(&seed).apply(&mut pt);
        let (data, icv) = pt.split_at(pt.len() - 4);
        let expect = u32::from_le_bytes([icv[0], icv[1], icv[2], icv[3]]);
        if crc32(data) != expect {
            return HitchhikeDelivery::RejectedByCrypto;
        }
    }
    HitchhikeDelivery::RecoveredWithModifiedAp
}

/// End-to-end HitchHike exchange over clean channels: returns the tag
/// bits the host recovers.
pub fn hitchhike_exchange(
    data_bits: &[u8],
    tag_bits: &[u8],
    rng: &mut Rng,
    noise_std: f64,
) -> Vec<u8> {
    let chips = spread(data_bits);
    let shifted = codeword_translate(&chips, tag_bits);
    // AWGN on both receptions.
    let noisy = |cs: &[Complex64], rng: &mut Rng| -> Vec<Complex64> {
        cs.iter()
            .map(|&c| c + c64(rng.gaussian() * noise_std, rng.gaussian() * noise_std))
            .collect()
    };
    let original_rx = despread(&noisy(&chips, rng));
    let shifted_rx = despread(&noisy(&shifted, rng));
    recover_tag_bits(&original_rx, &shifted_rx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barker_autocorrelation_peak() {
        let main: i32 = BARKER11.iter().map(|&c| (c as i32) * (c as i32)).sum();
        assert_eq!(main, 11);
        // Sidelobes of the aperiodic autocorrelation are ≤ 1 in magnitude.
        for shift in 1..11usize {
            let side: i32 = (0..11 - shift)
                .map(|i| BARKER11[i] as i32 * BARKER11[i + shift] as i32)
                .sum();
            assert!(side.abs() <= 1, "sidelobe {side} at shift {shift}");
        }
    }

    #[test]
    fn spread_despread_roundtrip() {
        let bits = vec![0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0];
        assert_eq!(despread(&spread(&bits)), bits);
    }

    #[test]
    fn translation_xors_tag_bits() {
        let data = vec![0, 1, 0, 0, 1, 1, 0, 1];
        let tag = vec![1, 0, 1, 1, 0, 0, 1, 0];
        let mut rng = Rng::seed_from_u64(1);
        let recovered = hitchhike_exchange(&data, &tag, &mut rng, 0.0);
        assert_eq!(recovered, tag);
    }

    #[test]
    fn exchange_survives_moderate_noise() {
        let mut rng = Rng::seed_from_u64(2);
        let data: Vec<u8> = (0..200).map(|_| (rng.next_u64() & 1) as u8).collect();
        let tag: Vec<u8> = (0..200).map(|_| (rng.next_u64() & 1) as u8).collect();
        // Barker processing gain (~10.4 dB) rides out chip-level noise;
        // each symbol error can smear into two bits (differential
        // decoding), so allow a small handful.
        let recovered = hitchhike_exchange(&data, &tag, &mut rng, 0.5);
        let errors = recovered
            .iter()
            .zip(tag.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(errors <= 4, "{errors} errors under moderate noise");
    }

    #[test]
    fn unmodified_ap_drops_translated_frames() {
        assert_eq!(
            deliver_modified_frame(b"payload bytes", true, None, false),
            HitchhikeDelivery::DroppedByFcs
        );
    }

    #[test]
    fn modified_ap_accepts_on_open_network() {
        assert_eq!(
            deliver_modified_frame(b"payload bytes", true, None, true),
            HitchhikeDelivery::RecoveredWithModifiedAp
        );
    }

    #[test]
    fn wep_network_rejects_even_with_modified_ap() {
        // The §2 incompatibility: after the tag flips ciphertext bits, the
        // ICV no longer verifies — no AP modification can fix that.
        assert_eq!(
            deliver_modified_frame(b"payload bytes", true, Some(b"ABCDE"), true),
            HitchhikeDelivery::RejectedByCrypto
        );
    }

    #[test]
    fn untouched_frames_pass_everywhere() {
        assert_eq!(
            deliver_modified_frame(b"payload", false, None, false),
            HitchhikeDelivery::RecoveredWithModifiedAp
        );
        assert_eq!(
            deliver_modified_frame(b"payload", false, Some(b"ABCDE"), false),
            HitchhikeDelivery::RecoveredWithModifiedAp
        );
    }
}
