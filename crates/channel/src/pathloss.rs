//! Path-loss laws and dB/linear conversions.
//!
//! Free-space (Friis) loss for in-room LOS links, plus the obstacle
//! penetration losses from the floorplan for NLOS links. Backscatter
//! two-hop amplitudes follow the radar-equation form the paper cites
//! (§6.2, Skolnik): received reflected power ∝ 1/(Ds²·Dr²).

/// Speed of light (m/s).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Convert a power ratio in dB to linear.
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert a linear power ratio to dB.
pub fn linear_to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Convert dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    db_to_linear(dbm)
}

/// Wavelength (m) at carrier frequency `f` (Hz).
pub fn wavelength(f_hz: f64) -> f64 {
    SPEED_OF_LIGHT / f_hz
}

/// Free-space *field amplitude* gain over a path of `d` metres at carrier
/// `f_hz`: λ/(4πd). Squared, this is the Friis power gain for unity
/// antenna gains.
///
/// Distances below 10 cm are clamped to avoid the near-field singularity.
pub fn freespace_amplitude(d_m: f64, f_hz: f64) -> f64 {
    let d = d_m.max(0.1);
    wavelength(f_hz) / (4.0 * core::f64::consts::PI * d)
}

/// Free-space power path loss in dB (positive number).
pub fn freespace_loss_db(d_m: f64, f_hz: f64) -> f64 {
    -linear_to_db(freespace_amplitude(d_m, f_hz).powi(2))
}

/// Thermal noise power (dBm) in bandwidth `bw_hz` with noise figure
/// `nf_db`: −174 dBm/Hz + 10·log₁₀(BW) + NF.
pub fn noise_floor_dbm(bw_hz: f64, nf_db: f64) -> f64 {
    -174.0 + 10.0 * bw_hz.log10() + nf_db
}

/// Two-hop backscatter *field amplitude* gain: TX→tag (`ds` m) re-radiated
/// to RX (`dr` m), with scatterer gain `g` (antenna gain² × re-radiation
/// efficiency folded into one calibration constant).
///
/// The power form of this is the paper's 1/(Ds²·Dr²) dependence.
pub fn backscatter_amplitude(ds_m: f64, dr_m: f64, f_hz: f64, g: f64) -> f64 {
    // Each hop contributes λ/(4πd); re-radiation aperture-to-gain factors
    // are absorbed into g (units: dimensionless field gain).
    g * freespace_amplitude(ds_m, f_hz)
        * freespace_amplitude(dr_m, f_hz)
        * 4.0
        * core::f64::consts::PI
        / wavelength(f_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    const F24: f64 = 2.437e9; // WiFi channel 6

    #[test]
    fn db_linear_roundtrip() {
        for db in [-30.0, 0.0, 3.0, 20.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
        }
        assert!((db_to_linear(3.0) - 1.9953).abs() < 1e-3);
    }

    #[test]
    fn freespace_loss_at_known_points() {
        // FSPL at 1 m, 2.437 GHz ≈ 40.2 dB.
        let l1 = freespace_loss_db(1.0, F24);
        assert!((l1 - 40.2).abs() < 0.3, "got {l1}");
        // +20 dB per decade of distance.
        let l10 = freespace_loss_db(10.0, F24);
        assert!((l10 - l1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_20mhz() {
        // −174 + 73 + 7 = −94 dBm.
        let nf = noise_floor_dbm(20e6, 7.0);
        assert!((nf + 94.0).abs() < 0.1, "got {nf}");
    }

    #[test]
    fn backscatter_follows_inverse_square_square() {
        let g = 1.0;
        let a1 = backscatter_amplitude(1.0, 7.0, F24, g);
        let a2 = backscatter_amplitude(2.0, 7.0, F24, g);
        // Field amplitude halves when Ds doubles => power drops 4x.
        assert!((a1 / a2 - 2.0).abs() < 1e-9);
        // Symmetric in the two hops.
        assert!(
            (backscatter_amplitude(3.0, 5.0, F24, g) - backscatter_amplitude(5.0, 3.0, F24, g))
                .abs()
                < 1e-15
        );
    }

    #[test]
    fn backscatter_minimised_at_midpoint() {
        // Paper §6.2: with Ds + Dr fixed, reflected strength is minimised
        // at Ds = Dr.
        let total = 8.0;
        let mid = backscatter_amplitude(4.0, 4.0, F24, 1.0);
        for ds in [1.0, 2.0, 3.0, 3.9] {
            let a = backscatter_amplitude(ds, total - ds, F24, 1.0);
            assert!(a > mid, "Ds={ds}: {a} should exceed midpoint {mid}");
        }
    }

    #[test]
    fn near_field_clamped() {
        assert_eq!(freespace_amplitude(0.0, F24), freespace_amplitude(0.1, F24));
        assert!(freespace_amplitude(0.05, F24).is_finite());
    }

    #[test]
    fn wavelength_at_wifi_band() {
        assert!((wavelength(F24) - 0.123).abs() < 0.001);
    }
}
