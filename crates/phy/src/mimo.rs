//! MIMO sounding and joint spatial-stream equalisation.
//!
//! Multi-stream PPDUs are sounded with one HT-LTF symbol per training
//! slot, mapped by the standard orthogonal matrix `P` (802.11n
//! §20.3.9.4.6): training symbol `n` carries `P[ss][n]` on every occupied
//! subcarrier of stream `ss`. Because the rows of `P` are orthogonal over
//! the training symbols, the receiver recovers the **full** `Nss×Nss`
//! channel matrix per subcarrier — cross-stream leakage included — by
//! correlating the received training symbols against the rows of `P`
//! ([`estimate_into`]).
//!
//! Equalisation is a joint per-subcarrier matrix solve
//! ([`MimoEqualiser`]):
//!
//! * **ZF** inverts `H` outright. Exact stream separation, but the rows
//!   of `H⁻¹` amplify noise by `Σⱼ|W[i][j]|²` — catastrophically so when
//!   `H` is ill-conditioned (correlated antennas, near-rank-1 LOS).
//! * **MMSE** solves `W = (HᴴH + σ²I)⁻¹Hᴴ` and unbiases each row. At
//!   high SNR it converges to ZF; at low SNR or poor conditioning it
//!   trades residual cross-stream interference for far less noise
//!   amplification, which is where it wins (DESIGN §4k).
//!
//! Everything here runs on fixed-size stack arrays (`Nss ≤ 4`) so the
//! receive hot loop stays allocation-free; the solves are direct
//! Gauss–Jordan eliminations with partial pivoting, deterministic and
//! bit-identical at any thread count.
//!
//! [`transmit_mu`] / [`receive_mu`] build on the same machinery for the
//! MOXcatter scenario: **independent per-stream PSDUs** multiplexed onto
//! one PPDU (MU-style), decoded per stream after the joint equalise, so
//! each stream produces its own A-MPDU → its own block-ACK bitmap.

use crate::complex::{c64, Complex64};
use crate::mcs::Mcs;
use crate::params::ht_ltf_count;
use crate::ppdu::{transmit, OfdmSymbol, PhyConfig, Ppdu};
use crate::receiver::{receive_mu_with_scratch, DecodedPsdu, RxScratch};

/// Upper bound on spatial streams (802.11n).
pub const MAX_NSS: usize = 4;

/// The standard HT-LTF orthogonal mapping matrix `P_HTLTF` (802.11n
/// §20.3.9.4.6). Row = spatial stream, column = training symbol. For
/// `Nss = 2` the top-left 2×2 block is used (orthogonal over two
/// symbols); `Nss = 3` uses the first three rows over all four symbols.
pub const P_HTLTF: [[f64; 4]; 4] = [
    [1.0, -1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0, 1.0],
    [1.0, 1.0, 1.0, -1.0],
    [-1.0, 1.0, 1.0, 1.0],
];

/// Which joint equaliser the receiver applies, at every stream count
/// (at `Nss = 1` zero-forcing is the per-subcarrier divide by `h`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MimoEqualiser {
    /// Zero-forcing: `W = H⁻¹`.
    #[default]
    Zf,
    /// Unbiased linear MMSE: `W = diag(b)⁻¹ (HᴴH + σ²I)⁻¹ Hᴴ`.
    Mmse,
}

impl MimoEqualiser {
    /// Compute the `n×n` equaliser weight matrix for one subcarrier into
    /// `w` (row-major, `w[i*n + j]` maps RX antenna `j` to stream `i`).
    /// Returns `false` (and an identity fallback in `w`) if the channel
    /// matrix is numerically singular.
    // lint:no_alloc
    pub fn weights(
        self,
        h: &[Complex64],
        n: usize,
        noise_var: f64,
        w: &mut [Complex64; MAX_NSS * MAX_NSS],
    ) -> bool {
        match self {
            MimoEqualiser::Zf => zf_weights(h, n, w),
            MimoEqualiser::Mmse => mmse_weights(h, n, noise_var, w),
        }
    }

    /// Lower-case stable name used in traces, bench rows and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            MimoEqualiser::Zf => "zf",
            MimoEqualiser::Mmse => "mmse",
        }
    }
}

/// The HT-LTF training symbols for `nss` streams: `ht_ltf_count(nss)`
/// OFDM symbols where training symbol `n` carries `P_HTLTF[ss][n]` on
/// every occupied subcarrier of stream `ss`. For `nss = 1` this is the
/// single all-ones LTF.
pub fn ltf_symbols(nss: usize, n_occupied: usize) -> Vec<OfdmSymbol> {
    assert!((1..=MAX_NSS).contains(&nss), "1..=4 spatial streams");
    (0..ht_ltf_count(nss))
        .map(|n| OfdmSymbol {
            streams: (0..nss)
                .map(|ss| vec![c64(P_HTLTF[ss][n], 0.0); n_occupied])
                .collect(),
        })
        .collect()
}

/// Estimate the full per-subcarrier channel matrix from the received
/// HT-LTF symbols by correlating against the rows of `P_HTLTF`.
///
/// Output layout: `h[pos*nss*nss + j*nss + i]` = coefficient from TX
/// stream `i` to RX antenna `j` at storage position `pos`. The `±1`
/// correlation sums are exact in IEEE arithmetic, so a noise-free
/// identity channel estimates to the exact identity — this is what keeps
/// the multi-stream loopback pins bit-green.
// lint:no_alloc
pub fn estimate_into(ltfs: &[OfdmSymbol], nss: usize, n_occupied: usize, h: &mut Vec<Complex64>) {
    let n_ltf = ltfs.len();
    debug_assert_eq!(n_ltf, ht_ltf_count(nss), "one LTF symbol per training slot");
    let scale = 1.0 / n_ltf as f64; // 1, 1/2 or 1/4 — exact powers of two
    h.clear();
    h.reserve(n_occupied * nss * nss);
    for pos in 0..n_occupied {
        for j in 0..nss {
            for p_row in P_HTLTF.iter().take(nss) {
                let mut acc = Complex64::ZERO;
                for (n, ltf) in ltfs.iter().enumerate() {
                    acc += ltf.streams[j][pos] * p_row[n];
                }
                h.push(acc * scale);
            }
        }
    }
}

/// In-place Gauss–Jordan inversion with partial pivoting: on success `w`
/// holds `a⁻¹` (both row-major `n×n` in the first `n*n` entries) and `a`
/// is destroyed. Deterministic — pivot choice depends only on the input
/// values. Returns `false` on a numerically singular matrix.
// lint:no_alloc
pub fn invert_into(
    a: &mut [Complex64; MAX_NSS * MAX_NSS],
    w: &mut [Complex64; MAX_NSS * MAX_NSS],
    n: usize,
) -> bool {
    debug_assert!(n <= MAX_NSS);
    for r in 0..n {
        for c in 0..n {
            w[r * n + c] = if r == c { Complex64::ONE } else { Complex64::ZERO }; // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
        }
    }
    for col in 0..n {
        let mut p = col;
        let mut best = a[col * n + col].norm_sqr(); // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
        for r in col + 1..n {
            let m = a[r * n + col].norm_sqr(); // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
            if m > best {
                best = m;
                p = r;
            }
        }
        if best <= 1e-24 {
            return false;
        }
        if p != col {
            for c in 0..n {
                a.swap(p * n + c, col * n + c);
                w.swap(p * n + c, col * n + c);
            }
        }
        let inv_piv = a[col * n + col].inv(); // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
        for c in 0..n {
            a[col * n + c] *= inv_piv; // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
            w[col * n + c] *= inv_piv; // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r * n + col]; // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
            for c in 0..n {
                a[r * n + c] -= f * a[col * n + c]; // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
                w[r * n + c] -= f * w[col * n + c]; // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
            }
        }
    }
    true
}

/// Write the identity into the first `n*n` entries of `w`.
// lint:no_alloc
fn identity_fallback(w: &mut [Complex64; MAX_NSS * MAX_NSS], n: usize) {
    for r in 0..n {
        for c in 0..n {
            w[r * n + c] = if r == c { Complex64::ONE } else { Complex64::ZERO }; // lint:allow(panic_path) indices < n <= MAX_NSS (debug_assert), arrays are MAX_NSS*MAX_NSS
        }
    }
}

/// Zero-forcing weights: `W = H⁻¹`. `h` is row-major (`h[j*n + i]`, RX
/// antenna `j`, TX stream `i`). Falls back to identity on a singular
/// channel (the decode then fails downstream at the FCS — no panic).
// lint:no_alloc
pub fn zf_weights(h: &[Complex64], n: usize, w: &mut [Complex64; MAX_NSS * MAX_NSS]) -> bool {
    let mut a = [Complex64::ZERO; MAX_NSS * MAX_NSS];
    a[..n * n].copy_from_slice(&h[..n * n]);
    if invert_into(&mut a, w, n) {
        true
    } else {
        identity_fallback(w, n);
        false
    }
}

/// Unbiased MMSE weights: `G = (HᴴH + σ²I)⁻¹Hᴴ`, then each row `i` is
/// divided by its bias `bᵢ = 1 − σ²·[(HᴴH + σ²I)⁻¹]ᵢᵢ` so the decision
/// statistic stays centred on the constellation (a biased MMSE output
/// shrinks toward the origin and mis-scales every LLR).
// lint:no_alloc
pub fn mmse_weights(
    h: &[Complex64],
    n: usize,
    noise_var: f64,
    w: &mut [Complex64; MAX_NSS * MAX_NSS],
) -> bool {
    let mut a = [Complex64::ZERO; MAX_NSS * MAX_NSS];
    for i in 0..n {
        for k in 0..n {
            let mut acc = if i == k { c64(noise_var, 0.0) } else { Complex64::ZERO };
            for j in 0..n {
                acc += h[j * n + i].conj() * h[j * n + k]; // lint:allow(panic_path) indices < n <= MAX_NSS, h/w/a/b are MAX_NSS*MAX_NSS
            }
            a[i * n + k] = acc; // lint:allow(panic_path) indices < n <= MAX_NSS, h/w/a/b are MAX_NSS*MAX_NSS
        }
    }
    let mut b = [Complex64::ZERO; MAX_NSS * MAX_NSS];
    if !invert_into(&mut a, &mut b, n) {
        identity_fallback(w, n);
        return false;
    }
    for i in 0..n {
        let bias = (1.0 - noise_var * b[i * n + i].re).max(1e-12); // lint:allow(panic_path) indices < n <= MAX_NSS, h/w/a/b are MAX_NSS*MAX_NSS
        let unbias = 1.0 / bias;
        for j in 0..n {
            // G[i][j] = Σ_k B[i][k]·conj(H[j][k])
            let mut g = Complex64::ZERO;
            for k in 0..n {
                g += b[i * n + k] * h[j * n + k].conj(); // lint:allow(panic_path) indices < n <= MAX_NSS, h/w/a/b are MAX_NSS*MAX_NSS
            }
            w[i * n + j] = g * unbias; // lint:allow(panic_path) indices < n <= MAX_NSS, h/w/a/b are MAX_NSS*MAX_NSS
        }
    }
    true
}

/// Post-equalisation effective noise variance per stream: row `i` of `W`
/// amplifies the per-antenna noise by `Σⱼ|W[i][j]|²`. This is exact for
/// ZF and the standard working approximation for unbiased MMSE (residual
/// inter-stream interference is folded into the same Gaussian budget).
// lint:no_alloc
pub fn eff_noise_rows(
    w: &[Complex64; MAX_NSS * MAX_NSS],
    n: usize,
    noise_var: f64,
    out: &mut [f64; MAX_NSS],
) {
    for i in 0..n {
        let mut amp = 0.0;
        for j in 0..n {
            amp += w[i * n + j].norm_sqr(); // lint:allow(panic_path) indices < n <= MAX_NSS, h/w/a/b are MAX_NSS*MAX_NSS
        }
        out[i] = noise_var * amp;
    }
}

/// The scrambler seed stream `i` of a MU PPDU uses (a fixed 7-bit
/// nonzero hop from the config's base seed, identical on both sides;
/// stream 0 keeps the base seed).
pub fn mu_stream_seed(base: u8, i: usize) -> u8 {
    (((base as usize - 1) + 29 * i) % 127 + 1) as u8
}

/// The single-stream `PhyConfig` that encodes one stream of a MU PPDU
/// built from `config` (same modulation/code rate/bandwidth/guard, one
/// spatial stream, per-stream scrambler seed).
pub fn mu_stream_config(config: &PhyConfig, i: usize) -> PhyConfig {
    let mut cfg = config.clone();
    cfg.mcs = Mcs {
        modulation: config.mcs.modulation,
        code_rate: config.mcs.code_rate,
        spatial_streams: 1,
    };
    cfg.scrambler_seed = mu_stream_seed(config.scrambler_seed, i);
    cfg
}

/// Multiplex **independent per-stream PSDUs** onto one PPDU (the
/// MOXcatter / MU-style framing): stream `i` carries `psdus[i]` through
/// its own scramble→encode→interleave→map chain, all streams share the
/// OFDM symbols and the P-mapped HT-LTFs. All PSDUs must have the same
/// length so the streams span the same symbol count; the returned PPDU's
/// `psdu_len` is the **per-stream** length.
///
/// # Panics
/// Panics if `psdus` is empty, its length disagrees with
/// `config.mcs.spatial_streams`, or the PSDU lengths differ.
pub fn transmit_mu(config: &PhyConfig, psdus: &[Vec<u8>]) -> Ppdu {
    let nss = config.mcs.spatial_streams;
    assert_eq!(psdus.len(), nss, "one PSDU per spatial stream");
    assert!(!psdus.is_empty(), "at least one stream");
    let len = psdus[0].len();
    assert!(
        psdus.iter().all(|p| p.len() == len),
        "MU streams must carry equal-length PSDUs"
    );

    // Every stream has the same length, so the same symbol count: move
    // each stream's carriers into the shared symbols.
    let mut symbols: Vec<OfdmSymbol> = Vec::new();
    for (i, psdu) in psdus.iter().enumerate() {
        let tx = transmit(&mu_stream_config(config, i), psdu);
        symbols.resize_with(tx.symbols.len(), || OfdmSymbol {
            streams: Vec::with_capacity(nss),
        });
        for (sym, stream) in symbols.iter_mut().zip(tx.symbols) {
            sym.streams.extend(stream.streams);
        }
    }
    Ppdu {
        config: config.clone(),
        psdu_len: len,
        ltfs: ltf_symbols(nss, config.layout().n_occupied()),
        symbols,
    }
}

/// Decode a MU PPDU built by [`transmit_mu`]: sound the full channel
/// matrix, jointly equalise every data subcarrier with the config's
/// [`MimoEqualiser`], then run each stream through its own
/// deinterleave→depuncture→Viterbi→descramble chain. One [`DecodedPsdu`]
/// per stream, in stream order.
pub fn receive_mu(rx: &Ppdu, noise_var: f64) -> Vec<DecodedPsdu> {
    receive_mu_with_scratch(rx, noise_var, &mut RxScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::Mcs;
    use witag_sim::Rng;

    fn random_h(rng: &mut Rng, n: usize) -> [Complex64; MAX_NSS * MAX_NSS] {
        let mut h = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        for e in h.iter_mut().take(n * n) {
            *e = c64(rng.gaussian(), rng.gaussian());
        }
        h
    }

    fn matmul(a: &[Complex64], b: &[Complex64], n: usize) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    out[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn p_rows_are_orthogonal_per_stream_count() {
        for nss in 1..=4usize {
            let n_ltf = ht_ltf_count(nss);
            for (i, row_i) in P_HTLTF.iter().enumerate().take(nss) {
                for (k, row_k) in P_HTLTF.iter().enumerate().take(nss) {
                    let dot: f64 = (0..n_ltf).map(|n| row_i[n] * row_k[n]).sum();
                    let expect = if i == k { n_ltf as f64 } else { 0.0 };
                    assert_eq!(dot, expect, "nss={nss} rows {i},{k}");
                }
            }
        }
    }

    #[test]
    fn identity_channel_estimates_exactly() {
        for nss in 1..=4usize {
            let ltfs = ltf_symbols(nss, 8);
            let mut h = Vec::new();
            estimate_into(&ltfs, nss, 8, &mut h);
            for pos in 0..8 {
                for j in 0..nss {
                    for i in 0..nss {
                        let v = h[pos * nss * nss + j * nss + i];
                        let expect = if i == j { 1.0 } else { 0.0 };
                        assert_eq!(v.re, expect, "nss={nss} [{j}][{i}]");
                        assert_eq!(v.im, 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn invert_recovers_identity() {
        let mut rng = Rng::seed_from_u64(77);
        for n in 1..=4usize {
            for _ in 0..50 {
                let h = random_h(&mut rng, n);
                let mut a = h;
                let mut inv = [Complex64::ZERO; MAX_NSS * MAX_NSS];
                assert!(invert_into(&mut a, &mut inv, n), "gaussian matrix singular?");
                let prod = matmul(&inv[..n * n], &h[..n * n], n);
                for i in 0..n {
                    for j in 0..n {
                        let expect = if i == j { 1.0 } else { 0.0 };
                        assert!(
                            (prod[i * n + j].re - expect).abs() < 1e-9
                                && prod[i * n + j].im.abs() < 1e-9,
                            "n={n} residual {:?}",
                            prod[i * n + j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn singular_matrix_reports_failure_with_identity_fallback() {
        let mut w = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        // Rank-1 2×2 (second row = first row).
        let h = [
            c64(1.0, 0.5),
            c64(-0.3, 0.2),
            c64(1.0, 0.5),
            c64(-0.3, 0.2),
        ];
        assert!(!zf_weights(&h, 2, &mut w));
        assert_eq!(w[0], Complex64::ONE);
        assert_eq!(w[1], Complex64::ZERO);
        assert_eq!(w[3], Complex64::ONE);
    }

    #[test]
    fn mmse_converges_to_zf_at_high_snr() {
        let mut rng = Rng::seed_from_u64(78);
        for n in 2..=3usize {
            let h = random_h(&mut rng, n);
            let mut wz = [Complex64::ZERO; MAX_NSS * MAX_NSS];
            let mut wm = [Complex64::ZERO; MAX_NSS * MAX_NSS];
            assert!(zf_weights(&h, n, &mut wz));
            assert!(mmse_weights(&h, n, 1e-12, &mut wm));
            for k in 0..n * n {
                assert!(
                    (wz[k] - wm[k]).abs() < 1e-6,
                    "n={n} entry {k}: zf {:?} vs mmse {:?}",
                    wz[k],
                    wm[k]
                );
            }
        }
    }

    #[test]
    fn mmse_amplifies_less_noise_on_ill_conditioned_channels() {
        // Nearly parallel columns: ZF pays a huge Σ|W|²; MMSE must not.
        let h = [
            c64(1.0, 0.0),
            c64(0.95, 0.05),
            c64(1.0, 0.1),
            c64(0.96, 0.12),
        ];
        let noise_var = 1e-2;
        let mut wz = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        let mut wm = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        assert!(zf_weights(&h, 2, &mut wz));
        assert!(mmse_weights(&h, 2, noise_var, &mut wm));
        let mut ez = [0.0; MAX_NSS];
        let mut em = [0.0; MAX_NSS];
        eff_noise_rows(&wz, 2, noise_var, &mut ez);
        eff_noise_rows(&wm, 2, noise_var, &mut em);
        for i in 0..2 {
            assert!(
                em[i] < ez[i],
                "stream {i}: mmse eff noise {} !< zf {}",
                em[i],
                ez[i]
            );
        }
    }

    #[test]
    fn mu_stream_seeds_stay_in_range_and_distinct() {
        let base = 0x5D;
        assert_eq!(mu_stream_seed(base, 0), base);
        let seeds: Vec<u8> = (0..4).map(|i| mu_stream_seed(base, i)).collect();
        for &s in &seeds {
            assert!((1..=127).contains(&s), "seed {s} out of 7-bit nonzero range");
        }
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    fn mu_loopback_recovers_every_stream() {
        let mut rng = Rng::seed_from_u64(79);
        for nss in 1..=3usize {
            let config = PhyConfig::new(Mcs::ht(8 * nss - 1)); // densest per count
            let psdus: Vec<Vec<u8>> = (0..nss)
                .map(|_| {
                    let mut p = vec![0u8; 90];
                    rng.fill_bytes(&mut p);
                    p
                })
                .collect();
            let ppdu = transmit_mu(&config, &psdus);
            assert_eq!(ppdu.ltfs.len(), ht_ltf_count(nss));
            let decoded = receive_mu(&ppdu, 1e-4);
            assert_eq!(decoded.len(), nss);
            for (i, d) in decoded.iter().enumerate() {
                assert_eq!(d.bytes, psdus[i], "nss={nss} stream {i}");
            }
        }
    }
}
