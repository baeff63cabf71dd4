//! Criterion micro-benchmarks for the reproduction's hot paths: the
//! Viterbi decoder (dominant cost), the full PHY receive chain, A-MPDU
//! aggregation/parsing, CCMP, the channel evaluation, and one complete
//! end-to-end query round.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use witag::experiment::{Experiment, ExperimentConfig};
use witag_channel::{Link, LinkConfig, TagMode, TagSchedule};
use witag_crypto::CcmpKey;
use witag_mac::ampdu::{aggregate, deaggregate, Mpdu};
use witag_mac::header::{Addr, MacHeader};
use witag_phy::convolutional::{
    bits_to_llrs, encode_punctured, decode_punctured, encode_stream, viterbi_decode_stream,
};
use witag_phy::mcs::{CodeRate, Mcs, Modulation};
use witag_phy::modulation::{demap_symbol_into, demodulate_llr, demodulate_llr_into, modulate};
use witag_phy::ppdu::{transmit, PhyConfig};
use witag_phy::receiver::{receive, receive_with_scratch, RxScratch};
use witag_sim::geom::Floorplan;
use witag_sim::rng::Rng;

fn bench_viterbi(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(1);
    let info_bits = 1000;
    let data: Vec<u8> = (0..info_bits).map(|_| (rng.next_u64() & 1) as u8).collect();
    let tx = encode_punctured(&data, CodeRate::R23);
    let llrs = bits_to_llrs(&tx);
    let mut g = c.benchmark_group("viterbi");
    g.throughput(Throughput::Elements(info_bits as u64));
    g.bench_function("decode_1000_bits_r23", |b| {
        b.iter(|| decode_punctured(std::hint::black_box(&llrs), CodeRate::R23, info_bits));
    });
    g.finish();
}

fn bench_phy_chain(c: &mut Criterion) {
    let config = PhyConfig::new(Mcs::ht(5));
    let psdu = vec![0x5Au8; 1664]; // 16 subframes' worth
    let ppdu = transmit(&config, &psdu);
    let mut g = c.benchmark_group("phy");
    g.throughput(Throughput::Bytes(psdu.len() as u64));
    g.bench_function("transmit_1664B_mcs5", |b| {
        b.iter(|| transmit(std::hint::black_box(&config), std::hint::black_box(&psdu)));
    });
    g.bench_function("receive_1664B_mcs5", |b| {
        b.iter(|| receive(std::hint::black_box(&ppdu), 1e-6));
    });
    g.finish();
}

fn bench_viterbi_stream(c: &mut Criterion) {
    // The unterminated decoder exactly as the receive chain calls it:
    // one whole PPDU's worth of mother-rate LLRs in a single pass.
    let mut rng = Rng::seed_from_u64(2);
    let n_bits = 4096;
    let data: Vec<u8> = (0..n_bits).map(|_| (rng.next_u64() & 1) as u8).collect();
    let llrs = bits_to_llrs(&encode_stream(&data)[..2 * n_bits]);
    let mut g = c.benchmark_group("viterbi");
    g.throughput(Throughput::Elements(n_bits as u64));
    g.bench_function("decode_stream_4096_bits", |b| {
        b.iter(|| viterbi_decode_stream(std::hint::black_box(&llrs), n_bits));
    });
    g.finish();
}

fn bench_demapper(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(3);
    let mut g = c.benchmark_group("demap");
    for (name, m) in [
        ("bpsk", Modulation::Bpsk),
        ("qam64", Modulation::Qam64),
        ("qam256", Modulation::Qam256),
    ] {
        let bpsc = m.bits_per_subcarrier();
        let bits: Vec<u8> = (0..bpsc * 512).map(|_| (rng.next_u64() & 1) as u8).collect();
        let syms = modulate(&bits, m);
        g.throughput(Throughput::Elements(syms.len() as u64));
        g.bench_function(&format!("llr_512_syms_{name}"), |b| {
            b.iter(|| demodulate_llr(std::hint::black_box(&syms), m, 1e-3));
        });
    }
    g.finish();
}

fn bench_receive_mcs_sweep(c: &mut Criterion) {
    // The full receive chain at the MCS extremes: MCS 0 (BPSK r1/2,
    // 1 stream), MCS 7 (64-QAM r5/6, 1 stream), MCS 15 (64-QAM r5/6,
    // 2 streams) — with and without scratch reuse at MCS 7.
    let psdu = vec![0x5Au8; 1664];
    let mut g = c.benchmark_group("receive");
    g.throughput(Throughput::Bytes(psdu.len() as u64));
    for idx in [0usize, 7, 15] {
        let ppdu = transmit(&PhyConfig::new(Mcs::ht(idx)), &psdu);
        g.bench_function(&format!("fresh_1664B_mcs{idx}"), |b| {
            b.iter(|| receive(std::hint::black_box(&ppdu), 1e-6));
        });
        let mut scratch = RxScratch::new();
        g.bench_function(&format!("scratch_1664B_mcs{idx}"), |b| {
            b.iter(|| receive_with_scratch(std::hint::black_box(&ppdu), 1e-6, &mut scratch));
        });
    }
    g.finish();
}

fn bench_ampdu(c: &mut Criterion) {
    let mpdus: Vec<Mpdu> = (0..64)
        .map(|seq| Mpdu {
            header: MacHeader::qos_null(Addr::local(1), Addr::local(2), Addr::local(1), seq),
            payload: vec![0u8; 70],
        })
        .collect();
    let (psdu, _) = aggregate(&mpdus);
    let mut g = c.benchmark_group("ampdu");
    g.throughput(Throughput::Bytes(psdu.len() as u64));
    g.bench_function("aggregate_64", |b| {
        b.iter(|| aggregate(std::hint::black_box(&mpdus)));
    });
    g.bench_function("deaggregate_64", |b| {
        b.iter(|| deaggregate(std::hint::black_box(&psdu)));
    });
    g.finish();
}

fn bench_ccmp(c: &mut Criterion) {
    let hdr = [0x88u8; 26];
    let a2 = [2u8; 6];
    let payload = vec![0xA5u8; 256];
    let mut g = c.benchmark_group("crypto");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("ccmp_encrypt_256B", |b| {
        b.iter_batched(
            || CcmpKey::new(&[7u8; 16]),
            |mut key| key.encrypt(&hdr, &a2, 0, std::hint::black_box(&payload)),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_channel(c: &mut Criterion) {
    let fp = Floorplan::paper_testbed();
    let mut link = Link::new(
        &fp,
        Floorplan::los_client_position(),
        Floorplan::ap_position(),
        Some(Floorplan::los_client_position().lerp(Floorplan::ap_position(), 0.125)),
        LinkConfig::default(),
        1,
    );
    let config = PhyConfig::new(Mcs::ht(5));
    let psdu = vec![0x5Au8; 1664];
    let ppdu = transmit(&config, &psdu);
    let schedule = TagSchedule::constant(TagMode::Phase0, ppdu.symbols.len());
    let mut g = c.benchmark_group("channel");
    g.bench_function("apply_ppdu_16_subframes", |b| {
        b.iter(|| link.apply_ppdu(std::hint::black_box(&ppdu), &schedule));
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut cfg = ExperimentConfig::fig5(1.0, 99);
    cfg.link.interference_rate_hz = 0.0;
    let mut exp = Experiment::new(cfg).unwrap();
    let bits = [1u8, 0].repeat(31);
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.throughput(Throughput::Elements(62));
    g.bench_function("query_round_64_subframes", |b| {
        b.iter(|| exp.run_round(std::hint::black_box(&bits)));
    });
    g.finish();
}

/// The seed's textbook ACS (full predecessor table, NEG_INF skip) — the
/// "flat" column the chunked/bit-sliced kernel is benched against. Same
/// transcription as the golden reference in
/// `crates/phy/tests/golden_equivalence.rs`.
mod flat_viterbi {
    use witag_phy::convolutional::CONSTRAINT;

    pub const STATES: usize = 1 << (CONSTRAINT - 1);
    const G0: u32 = 0o133;
    const G1: u32 = 0o171;

    fn parity(x: u32) -> u8 {
        (x.count_ones() & 1) as u8
    }

    pub fn decode_stream(llrs: &[f64], n_bits: usize) -> Vec<u8> {
        const NEG_INF: f64 = f64::NEG_INFINITY;
        let mut metrics = vec![NEG_INF; STATES];
        metrics[0] = 0.0;
        let mut next = vec![NEG_INF; STATES];
        let mut decisions = vec![0u8; n_bits * STATES];
        for step in 0..n_bits {
            let l0 = llrs[2 * step];
            let l1 = llrs[2 * step + 1];
            next.fill(NEG_INF);
            for (state, &m) in metrics.iter().enumerate() {
                if m == NEG_INF {
                    continue;
                }
                for input in 0..2u8 {
                    let reg = ((state as u32) << 1) | input as u32;
                    let (o0, o1) = (parity(reg & G0), parity(reg & G1));
                    let bm =
                        (if o0 == 0 { l0 } else { -l0 }) + (if o1 == 0 { l1 } else { -l1 });
                    let ns = ((state << 1) | input as usize) & (STATES - 1);
                    let cand = m + bm;
                    if cand > next[ns] {
                        next[ns] = cand;
                        decisions[step * STATES + ns] = state as u8;
                    }
                }
            }
            core::mem::swap(&mut metrics, &mut next);
        }
        let mut state = metrics
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(s, _)| s)
            .unwrap_or(0);
        let mut bits = vec![0u8; n_bits];
        for step in (0..n_bits).rev() {
            bits[step] = (state & 1) as u8;
            state = decisions[step * STATES + state] as usize;
        }
        bits
    }
}

fn bench_viterbi_sliced_vs_flat(c: &mut Criterion) {
    // The chunked butterfly kernel against the seed's flat per-state
    // scan, across stream lengths spanning one subframe to a whole
    // A-MPDU worth of mother-rate bits.
    let mut rng = Rng::seed_from_u64(5);
    let mut g = c.benchmark_group("viterbi_kernel");
    for n_bits in [1000usize, 4096, 16384] {
        let data: Vec<u8> = (0..n_bits).map(|_| (rng.next_u64() & 1) as u8).collect();
        let llrs = bits_to_llrs(&encode_stream(&data)[..2 * n_bits]);
        g.throughput(Throughput::Elements(n_bits as u64));
        g.bench_function(&format!("sliced_{n_bits}_bits"), |b| {
            b.iter(|| viterbi_decode_stream(std::hint::black_box(&llrs), n_bits));
        });
        g.bench_function(&format!("flat_{n_bits}_bits"), |b| {
            b.iter(|| flat_viterbi::decode_stream(std::hint::black_box(&llrs), n_bits));
        });
    }
    g.finish();
}

fn bench_demap_chunked_vs_scalar(c: &mut Criterion) {
    // The whole-symbol chunked demapper (per-subcarrier scale table, as
    // the receive chain drives it) against the per-call scalar path, at
    // the modulations of MCS 0 / 7 / 15.
    let mut rng = Rng::seed_from_u64(6);
    let noise_var = 1e-3;
    let mut g = c.benchmark_group("demap_kernel");
    for idx in [0usize, 7, 15] {
        let m = Mcs::ht(idx).modulation;
        let bpsc = m.bits_per_subcarrier();
        let bits: Vec<u8> = (0..bpsc * 512).map(|_| (rng.next_u64() & 1) as u8).collect();
        let syms = modulate(&bits, m);
        let scales: Vec<f64> = (0..syms.len())
            .map(|_| noise_var * (0.5 + rng.next_u64() as f64 / u64::MAX as f64))
            .collect();
        let mut out = Vec::with_capacity(bits.len());
        g.throughput(Throughput::Elements(syms.len() as u64));
        g.bench_function(&format!("chunked_512_syms_mcs{idx}"), |b| {
            b.iter(|| {
                out.clear();
                demap_symbol_into(
                    std::hint::black_box(&syms),
                    m,
                    std::hint::black_box(&scales),
                    &mut out,
                );
            });
        });
        g.bench_function(&format!("scalar_512_syms_mcs{idx}"), |b| {
            b.iter(|| {
                out.clear();
                demodulate_llr_into(std::hint::black_box(&syms), m, noise_var, &mut out);
            });
        });
    }
    g.finish();
}

fn bench_mimo_equaliser(c: &mut Criterion) {
    // The per-subcarrier weight solve is the only genuinely new inner
    // loop of the multi-stream chain: Gauss-Jordan over 2×2/3×3/4×4
    // complex matrices, once per data subcarrier per PPDU. Benchmark the
    // solve alone over a symbol's worth of matrices (52 tones), ZF vs
    // MMSE, plus the end-to-end 2-stream `receive_mu` chain.
    use witag_phy::complex::{c64, Complex64};
    use witag_phy::mimo::{transmit_mu, MimoEqualiser, MAX_NSS};
    use witag_phy::receiver::receive_mu_with_scratch;

    let mut rng = Rng::seed_from_u64(9);
    let mut g = c.benchmark_group("mimo_equaliser");
    for nss in [2usize, 3, 4] {
        // 52 well-conditioned matrices: Gaussian entries + diagonal
        // dominance, the same conditioning the solver proptests use.
        let mats: Vec<[Complex64; MAX_NSS * MAX_NSS]> = (0..52)
            .map(|_| {
                let mut h = [Complex64::ZERO; MAX_NSS * MAX_NSS];
                for (k, e) in h.iter_mut().take(nss * nss).enumerate() {
                    let diag = if k % (nss + 1) == 0 { nss as f64 + 1.0 } else { 0.0 };
                    *e = c64(rng.gaussian() + diag, rng.gaussian());
                }
                h
            })
            .collect();
        let mut w = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        g.throughput(Throughput::Elements(mats.len() as u64));
        for eq in [MimoEqualiser::Zf, MimoEqualiser::Mmse] {
            g.bench_function(&format!("{}_52_tones_{nss}x{nss}", eq.name()), |b| {
                b.iter(|| {
                    for h in &mats {
                        eq.weights(std::hint::black_box(h), nss, 1e-3, &mut w);
                        std::hint::black_box(&w);
                    }
                });
            });
        }
    }
    let mut cfg = PhyConfig::new(Mcs::ht(13));
    let psdus = vec![vec![0x5Au8; 256], vec![0xA5u8; 256]];
    let mut scratch = RxScratch::new();
    for eq in [MimoEqualiser::Zf, MimoEqualiser::Mmse] {
        cfg.equaliser = eq;
        let mu = transmit_mu(&cfg, &psdus);
        g.bench_function(&format!("receive_mu_2x256B_{}", eq.name()), |b| {
            b.iter(|| receive_mu_with_scratch(std::hint::black_box(&mu), 1e-6, &mut scratch));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_viterbi,
    bench_viterbi_stream,
    bench_viterbi_sliced_vs_flat,
    bench_demapper,
    bench_demap_chunked_vs_scalar,
    bench_receive_mcs_sweep,
    bench_mimo_equaliser,
    bench_phy_chain,
    bench_ampdu,
    bench_ccmp,
    bench_channel,
    bench_end_to_end
);
criterion_main!(benches);
