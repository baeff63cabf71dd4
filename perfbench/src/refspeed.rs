//! The reference kernel that the timing metrics are scaled by.
//!
//! On a small shared VM the same code runs at speeds that drift by 20–80 %
//! within seconds to minutes, and the thread's CPU time grows with its
//! wall time: the core runs it slower. A run therefore also times a fixed
//! kernel of the benchmark's own, once before every set-up and every
//! step, and reports each timing at the host speed at which that kernel
//! takes [`REFERENCE_S`]: each set-up's or step's time times
//! `REFERENCE_S / the kernel time just before it`, before any median or
//! percentile is taken. The kernel is not program code, so
//! a change to the program moves the scaled timings as much as the raw
//! ones; the run prints both.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference speed, seconds. Close to the
/// kernel's time on the 2-vCPU Xeon VM the bounds were measured on.
pub(crate) const REFERENCE_S: f64 = 0.6e-3;

/// Distinct keys of the kernel's map, and the updates it makes.
const KEYS: u64 = 8192;
const UPDATES: u64 = 20_000;

/// The kernel: a freshly allocated hash map (fixed SipHash keys) takes
/// [`UPDATES`] updates spread over [`KEYS`] pseudo-random keys. Hashing,
/// probing, allocation and first touch of about 200 KB are the kind of
/// work the workloads mix. Of the candidates tried (multiply-add chains,
/// random reads of 16 KB, 256 KB and 4 MB tables, unpredictable branches,
/// a 1 MB pointer chase, this map), it alone slowed by the same factor as
/// the program when the host did (see `NOTES.md`, "Host noise").
fn pass() -> usize {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(KEYS as usize, Default::default());
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..black_box(UPDATES) {
        h = h
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *map.entry((h >> 33) % KEYS).or_insert(0) += i;
    }
    map.len()
}

/// Wall time of one pass, seconds. An untimed pass first brings the
/// allocator and caches back to the kernel's state after whatever the
/// program did, so the program's own footprint does not enter the timing.
pub(crate) fn time() -> f64 {
    black_box(pass());
    let t0 = Instant::now();
    black_box(pass());
    t0.elapsed().as_secs_f64()
}
