//! Metro-scale fleet engine: spatial cells, SoA tag state, calendar
//! wakeups, batched grants — the 10⁴–10⁶-tag regime.
//!
//! [`run_fleet`](crate::run_fleet) is the full-fidelity engine: every
//! grant drives a real session transport round through chunk FEC and
//! CRC, which is exactly right up to a few hundred tags and two orders
//! of magnitude too slow past that (its per-grant candidate scan is
//! O(tags), and a serial poller's probes advance one 2 ms exchange at
//! a time). This module is the scale tier above it, trading the
//! bit-level transport for a chunk-granular session model (the same
//! abstraction level `witag-net` already owns — see DESIGN.md §4j)
//! while keeping everything that makes the repo's simulations
//! trustworthy:
//!
//! * **Spatial cell decomposition.** Readers and tags live on a metro
//!   grid of [`CELL_SIZE_M`]-wide cells ([`witag_sim::geom`] points).
//!   Cells are assigned WiFi channels in a reuse-`channels` pattern;
//!   co-channel cells closer than [`INTERFERENCE_RANGE_M`] are merged
//!   into one *contention domain* (union-find over the cell grid).
//!   Readers contend CSMA-style only inside their domain, and
//!   non-interfering domains advance completely independently — which
//!   is what makes the engine parallel without a global lock step.
//! * **Struct-of-arrays tag state.** A `TagStore`'s parallel `Vec`s
//!   (duty phase, cooldown streak, chunks remaining, airtime, DRR
//!   credit) replace `run_fleet`'s per-tag heap objects — the same SoA
//!   trick the PR-7 PHY kernels used, here so a million tags fit in a
//!   few flat allocations that scan linearly.
//! * **Calendar-queue wakeups.** Cooldown expiries and medium accesses
//!   go through [`witag_sim::CalendarQueue`] (O(1) amortized), so the
//!   scheduler only ever looks at tags that are actually ready — the
//!   O(tags)-per-grant scan is gone.
//! * **Batched grant rounds.** A reader that wins the medium serves up
//!   to [`MetroConfig::batch`] query rounds back to back under one
//!   DIFS/backoff/marker envelope, aborting the batch on the first
//!   dead-air round so sleeping tags cost one probe, not eight.
//! * **Hierarchical scheduling.** Within a cell the intra-cell policy
//!   is the existing [`SchedulerKind`] vocabulary (`rr`/`fair`/`edf`/
//!   `serial`; `pred` falls back to `fair` — predictive deferral is a
//!   single-medium optimisation that spatial reuse already subsumes).
//!   Across cells that share a medium, an epoch-based airtime-budget
//!   layer reallocates the domain's airtime to cells proportional to
//!   their backlog every [`MetroConfig::epoch`], so a dense cell
//!   cannot starve its co-channel neighbours.
//!
//! Determinism is unchanged from the rest of the repo: a run is a pure
//! function of [`MetroConfig::seed`]; domains fork per-domain RNG
//! streams, trace events buffer per domain and replay in domain order
//! behind `shard` markers, so report and trace bytes are identical at
//! any thread count (pinned by `tests/net_determinism.rs`).

use std::collections::VecDeque;
use std::ops::Range;

use witag::tagnet::{CHUNK_PAYLOAD_BITS, MIN_CHANNEL_BITS};
use witag_mac::access::{contend, Round, Station};
use witag_obs::{BufferRecorder, Event, NullRecorder, Recorder};
use witag_phy::airtime::{block_ack_airtime, LegacyRate};
use witag_phy::mcs::Mcs;
use witag_phy::params::timing;
use witag_phy::ppdu::PhyConfig;
use witag_sim::geom::Point2;
use witag_sim::stats::SampleSet;
use witag_sim::time::{Duration, Instant};
use witag_sim::{par_map, CalendarQueue, Rng};

use crate::fleet::{cooldown, DutyCycle, NetError, MARKER_AIRTIME};
use crate::scheduler::SchedulerKind;

/// Side of one square metro cell, metres — a warehouse aisle block or
/// a storefront, with its reader(s) at the centre.
pub const CELL_SIZE_M: f64 = 20.0;

/// Beyond this centre-to-centre distance two cells cannot interfere
/// even co-channel (backscatter links are short and readers are
/// down-tilted; 25 m > one diagonal cell pitch, < two cell pitches).
pub const INTERFERENCE_RANGE_M: f64 = 25.0;

/// Per-round chunk failure probability at zero reader distance (chunk
/// CRC rejects: residual noise the FEC did not clean).
const CHUNK_FAIL_BASE: f64 = 0.02;

/// Additional chunk failure probability per metre of tag–reader
/// distance inside the cell.
const CHUNK_FAIL_PER_M: f64 = 0.004;

/// Chunk failure probability for rounds overlapped by a collision
/// (most of the readout prefix is corrupted; some capture survives).
const COLLISION_CHUNK_FAIL: f64 = 0.9;

/// Complete description of one metro-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroConfig {
    /// Number of grid cells (laid out on a near-square grid).
    pub cells: usize,
    /// Total readers; reader `r` serves cell `r % cells`.
    pub readers: usize,
    /// Total tags; tag `i` lives in cell `i % cells` at a
    /// deterministic pseudo-random position inside it.
    pub tags: usize,
    /// Intra-cell scheduling policy (`pred` falls back to `fair`).
    pub scheduler: SchedulerKind,
    /// Simulated-time budget for the run.
    pub horizon: Duration,
    /// Master seed; every domain forks its own stream from it.
    pub seed: u64,
    /// WiFi channels available for spatial reuse (≥ 1; 3 is the
    /// classic non-overlapping 2.4 GHz set and eliminates co-channel
    /// adjacency on the grid).
    pub channels: usize,
    /// Query rounds served back to back per medium access (≥ 1): one
    /// marker/DIFS envelope amortised over the batch.
    pub batch: u32,
    /// Inter-cell budget reallocation period of the hierarchical
    /// scheduler.
    pub epoch: Duration,
    /// Optional energy-harvesting duty cycle applied to every tag
    /// (`phase` is a base offset; per-tag phases are spread from it).
    pub duty: Option<DutyCycle>,
}

impl MetroConfig {
    /// A deterministic metro inventory: heterogeneous tag classes
    /// (cycling per-query capacities, subframe sizes, message
    /// lengths — the same cycle as
    /// [`FleetConfig::inventory`](crate::FleetConfig::inventory)),
    /// staggered deadlines, reuse-3 channels, batch 8, 1 s epochs.
    pub fn inventory(
        cells: usize,
        readers: usize,
        tags: usize,
        scheduler: SchedulerKind,
        horizon: Duration,
        seed: u64,
    ) -> MetroConfig {
        MetroConfig {
            cells,
            readers,
            tags,
            scheduler,
            horizon,
            seed,
            channels: 3,
            batch: 8,
            epoch: Duration::secs(1),
            duty: None,
        }
    }

    /// Give every tag an energy-harvesting duty cycle, phases spread
    /// deterministically so ON windows interleave within each cell.
    pub fn with_duty_cycle(mut self, period: Duration, on_fraction: f64) -> MetroConfig {
        self.duty = Some(DutyCycle {
            period,
            on_fraction,
            phase: Duration::ZERO,
        });
        self
    }

    /// Number of grid columns/rows (the smallest square that holds
    /// every cell).
    pub fn grid_side(&self) -> usize {
        let mut s = 1usize;
        while s * s < self.cells {
            s += 1;
        }
        s
    }

    /// Centre of cell `c` on the metro grid, metres.
    pub fn cell_center(&self, c: usize) -> Point2 {
        let side = self.grid_side().max(1);
        let x = (c % side) as f64 * CELL_SIZE_M + CELL_SIZE_M / 2.0;
        let y = (c / side) as f64 * CELL_SIZE_M + CELL_SIZE_M / 2.0;
        Point2::new(x, y)
    }

    /// WiFi channel of cell `c`: the `(col + 2·row) mod channels`
    /// reuse pattern, which for 3 channels gives no co-channel
    /// horizontal or vertical adjacency.
    pub fn cell_channel(&self, c: usize) -> usize {
        let side = self.grid_side().max(1);
        (c % side + 2 * (c / side)) % self.channels.max(1)
    }
}

/// Per-cell aggregate of one metro run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Grid cell index.
    pub cell: usize,
    /// Contention domain the cell was merged into.
    pub domain: usize,
    /// WiFi channel the cell operates on.
    pub channel: usize,
    /// Readers serving this cell.
    pub readers: usize,
    /// Tags homed in this cell.
    pub tags: usize,
    /// Tags whose full message was recovered.
    pub delivered: usize,
    /// Uncontested medium accesses won by this cell's readers.
    pub grants: u64,
    /// Colliding accesses this cell's readers were part of.
    pub collisions: u64,
    /// Airtime this cell's readers consumed.
    pub airtime: Duration,
}

/// Aggregate result of one metro run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroReport {
    /// The intra-cell policy that produced this run.
    pub scheduler: SchedulerKind,
    /// Cells in the grid.
    pub cells: usize,
    /// Readers across the metro.
    pub readers: usize,
    /// Tags across the metro.
    pub tags: usize,
    /// Independent contention domains the cells merged into.
    pub domains: usize,
    /// Tags whose full message was recovered.
    pub delivered: usize,
    /// Simulated time consumed (slowest domain, capped at the
    /// horizon).
    pub elapsed: Duration,
    /// Uncontested medium accesses across all domains.
    pub grants: u64,
    /// Colliding accesses across all domains.
    pub collisions: u64,
    /// Dead query rounds burnt probing sleeping tags.
    pub probe_rounds: u64,
    /// Total airtime consumed across all cells (can exceed `elapsed`:
    /// non-interfering cells transmit concurrently — that concurrency
    /// is the point of spatial reuse).
    pub airtime: Duration,
    /// Message bits of delivered tags (goodput numerator).
    pub delivered_bits: u64,
    /// Delivered reads that beat their staggered freshness deadline.
    pub deadline_hits: usize,
    /// Per-cell aggregates, in cell order.
    pub cell_summaries: Vec<CellSummary>,
    /// Delivery latencies in microseconds, sorted ascending.
    latencies_us: Vec<f64>,
}

impl MetroReport {
    /// Aggregate goodput: delivered message bits over elapsed
    /// simulated time (spatial reuse lets this exceed any single
    /// medium's rate).
    pub fn goodput_bps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.delivered_bits as f64 / secs
        }
    }

    /// Collisions per medium access.
    pub fn collision_rate(&self) -> f64 {
        let accesses = self.grants + self.collisions;
        if accesses == 0 {
            0.0
        } else {
            self.collisions as f64 / accesses as f64
        }
    }

    /// The `p`-th percentile of delivery latencies, microseconds
    /// (`None` when nothing was delivered), interpolated like
    /// [`FleetReport::latency_percentile`](crate::FleetReport::latency_percentile).
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        let mut samples = SampleSet::new();
        for &lat in &self.latencies_us {
            samples.push(lat);
        }
        samples.percentile(p)
    }
}

/// Static layout shared by every domain worker: cell → domain
/// assignment and the per-domain reader/tag membership lists.
struct Topology {
    /// Domain id of each cell.
    cell_domain: Vec<usize>,
    /// Number of contention domains.
    domains: usize,
    /// Global reader ids per cell.
    cell_readers: Vec<Vec<usize>>,
    /// Global cell ids per domain.
    domain_cells: Vec<Vec<usize>>,
}

impl Topology {
    fn build(cfg: &MetroConfig) -> Topology {
        let cells = cfg.cells;
        let side = cfg.grid_side();
        // Union-find over co-channel cells within interference range.
        let mut parent: Vec<usize> = (0..cells).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            loop {
                let up = parent[x]; // lint:allow(panic_path) x always a valid cell id by construction
                if up == x {
                    return x;
                }
                parent[x] = parent[up]; // lint:allow(panic_path) parent entries are cell ids
                x = parent[x]; // lint:allow(panic_path) parent entries are cell ids
            }
        }
        for c in 0..cells {
            let (cx, cy) = (c % side, c / side);
            // Only the 2-ring can be within 25 m of a 20 m grid pitch.
            for dy in 0..=2usize {
                for dx in -2i64..=2 {
                    if dx <= 0 && dy == 0 {
                        continue; // visit each unordered pair once
                    }
                    let nx = cx as i64 + dx;
                    let ny = cy + dy;
                    if nx < 0 || nx as usize >= side || ny >= side {
                        continue;
                    }
                    let n = ny * side + nx as usize;
                    if n >= cells {
                        continue;
                    }
                    if cfg.cell_channel(c) != cfg.cell_channel(n) {
                        continue;
                    }
                    if cfg.cell_center(c).distance(cfg.cell_center(n)) > INTERFERENCE_RANGE_M {
                        continue;
                    }
                    let (rc, rn) = (find(&mut parent, c), find(&mut parent, n));
                    if rc != rn {
                        parent[rn] = rc; // lint:allow(panic_path) rn is a root returned by find
                    }
                }
            }
        }
        // Compress roots into dense domain ids, in cell order.
        let mut cell_domain = vec![0usize; cells];
        let mut domains = 0usize;
        let mut root_id: Vec<Option<usize>> = vec![None; cells];
        for (c, slot) in cell_domain.iter_mut().enumerate() {
            let r = find(&mut parent, c);
            let root = root_id[r]; // lint:allow(panic_path) r is a cell id returned by find
            let id = match root {
                Some(id) => id,
                None => {
                    let id = domains;
                    domains += 1;
                    root_id[r] = Some(id); // lint:allow(panic_path) r is a cell id returned by find
                    id
                }
            };
            *slot = id;
        }
        let mut cell_readers: Vec<Vec<usize>> = vec![Vec::new(); cells];
        for r in 0..cfg.readers {
            cell_readers[r % cells].push(r); // lint:allow(panic_path) r % cells < cells
        }
        let mut domain_cells: Vec<Vec<usize>> = vec![Vec::new(); domains];
        for c in 0..cells {
            domain_cells[cell_domain[c]].push(c); // lint:allow(panic_path) cell_domain holds dense ids < domains
        }
        Topology {
            cell_domain,
            domains,
            cell_readers,
            domain_cells,
        }
    }
}

/// Struct-of-arrays state for one domain's tags, indexed by
/// domain-local tag id. Parallel `Vec`s instead of per-tag objects:
/// the hot loop touches two or three fields per round, and a million
/// tags stay in a handful of flat allocations.
struct TagStore {
    /// Global tag id (reporting only).
    global: Vec<u64>,
    /// Domain-local cell index.
    cell: Vec<u32>,
    /// Duty-cycle phase offset, ns (with the config-global period/ON
    /// fraction; unused when the config has no duty cycle).
    duty_phase_ns: Vec<u64>,
    /// Transport chunks still missing (0 = message complete).
    chunks_left: Vec<u16>,
    /// Total chunks of the message (header included).
    chunks_total: Vec<u16>,
    /// Consecutive dead rounds (cooldown inference).
    streak: Vec<u8>,
    /// One query round's airtime (payload + SIFS + block ACK), ns.
    exchange_ns: Vec<u32>,
    /// Per-round chunk failure probability (link quality from the
    /// tag's in-cell distance to its reader).
    p_fail: Vec<f32>,
    /// Message size in bits (goodput numerator when delivered).
    message_bits: Vec<u32>,
    /// Staggered freshness deadline, ns from start.
    deadline_ns: Vec<u64>,
    /// Query rounds spent on this tag.
    rounds: Vec<u32>,
    /// Airtime consumed by this tag's rounds, ns.
    airtime_ns: Vec<u64>,
    /// Completion time, ns (`u64::MAX` while unfinished).
    finished_ns: Vec<u64>,
    /// Airtime credit for the DRR (`fair`) policy, ns.
    deficit_ns: Vec<u64>,
}

impl TagStore {
    fn len(&self) -> usize {
        self.global.len()
    }

    /// Whether tag `t` can respond at `now` under the config duty
    /// cycle, shifted by the tag's own phase (always awake without one).
    fn awake(&self, duty: Option<&DutyCycle>, t: usize, now: Instant) -> bool {
        duty.is_none_or(|d| {
            let phase = Duration::nanos(self.duty_phase_ns.get(t).copied().unwrap_or(0));
            DutyCycle { phase, ..*d }.awake(now)
        })
    }
}

/// Build the SoA store for one domain from the deterministic tag
/// classes (same class cycle as `FleetConfig::inventory`, so the two
/// engines describe the same population).
fn build_store(cfg: &MetroConfig, topo: &Topology, domain: usize) -> TagStore {
    let phy = PhyConfig::new(Mcs::ht(4));
    // Exchange airtime per (channel_bits, subframe_bytes) class —
    // 12 classes, precomputed once instead of per tag.
    let mut class_exchange = [[0u32; 3]; 4];
    for (bi, row) in class_exchange.iter_mut().enumerate() {
        for (si, slot) in row.iter_mut().enumerate() {
            let channel_bits = MIN_CHANNEL_BITS + bi * 2;
            let subframe_bytes = 48usize << si;
            let subframes = channel_bits + 2;
            let exch = phy.airtime(subframe_bytes * subframes)
                + timing::SIFS
                + block_ack_airtime(LegacyRate::M24);
            *slot = exch.as_nanos() as u32;
        }
    }
    let period_ns = cfg.duty.map_or(1, |d| d.period.as_nanos().max(1));
    let mut store = TagStore {
        global: Vec::new(),
        cell: Vec::new(),
        duty_phase_ns: Vec::new(),
        chunks_left: Vec::new(),
        chunks_total: Vec::new(),
        streak: Vec::new(),
        exchange_ns: Vec::new(),
        p_fail: Vec::new(),
        message_bits: Vec::new(),
        deadline_ns: Vec::new(),
        rounds: Vec::new(),
        airtime_ns: Vec::new(),
        finished_ns: Vec::new(),
        deficit_ns: Vec::new(),
    };
    let domain_cells = &topo.domain_cells[domain]; // lint:allow(panic_path) domain < topo.domains by caller contract
    for (local_cell, &cell) in domain_cells.iter().enumerate() {
        // Tag i lives in cell i % cells: walk this cell's members.
        let mut i = cell;
        while i < cfg.tags {
            let msg_len = 12 + (i % 5) * 6;
            let msg_bits = msg_len * 8;
            let chunks = 1 + msg_bits.div_ceil(CHUNK_PAYLOAD_BITS);
            // Deterministic in-cell position from a SplitMix64-style
            // hash of the tag id: distance to the centre reader sets
            // link quality.
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let fx = ((h >> 11) & 0xFFFF) as f64 / 65536.0;
            let fy = ((h >> 33) & 0xFFFF) as f64 / 65536.0;
            let dx = (fx - 0.5) * (CELL_SIZE_M - 2.0);
            let dy = (fy - 0.5) * (CELL_SIZE_M - 2.0);
            let dist = (dx * dx + dy * dy).sqrt();
            store.global.push(i as u64);
            store.cell.push(local_cell as u32);
            store
                .duty_phase_ns
                .push((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % period_ns);
            store.chunks_left.push(chunks as u16);
            store.chunks_total.push(chunks as u16);
            store.streak.push(0);
            store.exchange_ns.push(class_exchange[i % 4][i % 3]); // lint:allow(panic_path) indices taken modulo the array dims
            store
                .p_fail
                .push((CHUNK_FAIL_BASE + CHUNK_FAIL_PER_M * dist) as f32);
            store.message_bits.push(msg_bits as u32);
            store
                .deadline_ns
                .push(cfg.horizon.as_nanos() / cfg.tags.max(1) as u64 * (i as u64 + 1));
            store.rounds.push(0);
            store.airtime_ns.push(0);
            store.finished_ns.push(u64::MAX);
            store.deficit_ns.push(0);
            i += cfg.cells;
        }
    }
    store
}

/// A pending wakeup in a domain's calendar.
enum Wake {
    /// Evaluate medium contention (the medium is or will be free).
    Access,
    /// A cooled-down tag becomes servable again (local tag id).
    Ready(u32),
}

/// Per-cell live state inside a domain simulation.
struct CellState {
    /// Global cell id.
    cell: usize,
    /// Servable local tag ids (policy-ordered ring).
    ring: VecDeque<u32>,
    /// Sorted local tag ids homed here (serial cursor's universe).
    members: Vec<u32>,
    /// Serial policy cursor into `members`.
    serial_cursor: usize,
    /// Tags not yet complete.
    remaining: usize,
    /// Tags delivered.
    delivered: usize,
    /// Airtime budget for the current epoch, ns (may overdraft by
    /// less than one batch).
    budget_ns: i64,
    /// Grants won during the current epoch.
    epoch_grants: u32,
    /// DRR replenish quantum, ns (cheapest batch in the cell).
    quantum_ns: u64,
    /// This cell's readers: indices into the domain's stations.
    readers: Range<usize>,
    /// Totals for the cell summary.
    grants: u64,
    collisions: u64,
    airtime_ns: u64,
}

/// Everything one domain worker returns for merging.
struct DomainOut {
    /// Per-tag results, parallel to the store's local order:
    /// (global id, rounds, airtime ns, finished ns, message bits,
    /// deadline ns).
    tags: Vec<(u64, u32, u64, u64, u32, u64)>,
    cells: Vec<CellSummary>,
    grants: u64,
    collisions: u64,
    probe_rounds: u64,
    elapsed: Duration,
    buf: BufferRecorder,
}

/// Simulate one contention domain over the full horizon.
fn simulate_domain(cfg: &MetroConfig, topo: &Topology, domain: usize, tracing: bool) -> DomainOut {
    let mut buf = BufferRecorder::new();
    let mut null = NullRecorder;
    let store = &mut build_store(cfg, topo, domain);
    let duty = cfg.duty;
    let duty_ref = duty.as_ref();
    let batch = cfg.batch.max(1);
    let policy = cfg.scheduler;
    let serial = matches!(policy, SchedulerKind::Serial);
    let mut rng = Rng::seed_from_u64(cfg.seed)
        .fork(0x3E70)
        .fork(domain as u64);

    // Per-cell state; local tag ids are grouped by cell in store
    // construction order, and so are the domain's readers: each is
    // (cell index, global reader id), with its DCF station alongside.
    let n_cells = topo.domain_cells[domain].len(); // lint:allow(panic_path) domain < topo.domains by caller contract
    let mut reader_home: Vec<(usize, usize)> = Vec::new();
    let mut cells: Vec<CellState> = topo.domain_cells[domain] // lint:allow(panic_path) domain < topo.domains by caller contract
        .iter()
        .enumerate()
        .map(|(ci, &c)| CellState {
            cell: c,
            ring: VecDeque::new(),
            members: Vec::new(),
            serial_cursor: 0,
            remaining: 0,
            delivered: 0,
            budget_ns: 0,
            epoch_grants: 0,
            quantum_ns: u64::MAX,
            readers: {
                let first = reader_home.len();
                reader_home.extend(topo.cell_readers[c].iter().map(|&r| (ci, r))); // lint:allow(panic_path) c is a valid cell id from domain_cells
                first..reader_home.len()
            },
            grants: 0,
            collisions: 0,
            airtime_ns: 0,
        })
        .collect();
    for t in 0..store.len() {
        let c = store.cell[t] as usize; // lint:allow(panic_path) t < store.len(), all SoA vecs same length
        if let Some(cs) = cells.get_mut(c) {
            cs.ring.push_back(t as u32);
            cs.members.push(t as u32);
            cs.remaining += 1;
            let cost = store.exchange_ns[t] as u64 * batch as u64; // lint:allow(panic_path) t < store.len()
            cs.quantum_ns = cs.quantum_ns.min(cost);
        }
    }
    let mut stations = vec![Station::default(); reader_home.len()];

    let epoch_ns = cfg.epoch.as_nanos().max(1_000_000); // ≥ 1 ms
    let end = Instant::ZERO + cfg.horizon;
    let mut epoch_idx: u64 = 0;
    let mut epoch_end = Instant::from_nanos(epoch_ns);
    recompute_budgets(&mut cells, epoch_ns);

    let mut queue: CalendarQueue<Wake> = CalendarQueue::with_width(Duration::millis(1));
    queue.schedule(Instant::ZERO, Wake::Access);
    let mut access_pending = true;
    let mut busy_until = Instant::ZERO;
    let mut access_round: u64 = 0;
    let mut grants = 0u64;
    let mut collisions = 0u64;
    let mut probe_rounds = 0u64;
    let mut elapsed = Duration::ZERO;
    let mut remaining_total = store.len();
    // Per-access buffers, cleared and refilled each pass.
    let mut contenders: Vec<usize> = Vec::with_capacity(reader_home.len());
    let mut round = Round::default();
    let mut served: Vec<(usize, usize, u64)> = Vec::new(); // (cell, tag, spent ns)

    while let Some(ev) = queue.pop() {
        let now = ev.at;
        if now >= end || remaining_total == 0 {
            break;
        }
        match ev.payload {
            Wake::Ready(t) => {
                let t = t as usize;
                if store.finished_ns.get(t).copied().unwrap_or(0) != u64::MAX {
                    continue; // finished while cooling (collision path)
                }
                let c = store.cell.get(t).copied().unwrap_or(0) as usize;
                if let Some(cs) = cells.get_mut(c) {
                    cs.ring.push_back(t as u32);
                }
                if !access_pending {
                    queue.schedule(busy_until.max(now), Wake::Access);
                    access_pending = true;
                }
                continue;
            }
            Wake::Access => access_pending = false,
        }

        // Epoch rollover: close finished epochs, re-divide the
        // domain's airtime among its cells proportional to backlog.
        while now >= epoch_end {
            let rec: &mut dyn Recorder = if tracing { &mut buf } else { &mut null };
            if rec.enabled() {
                for cs in cells.iter() {
                    rec.record(&Event::NetCellEpoch {
                        cell: cs.cell as u32,
                        epoch: epoch_idx as u32,
                        budget_us: (cs.budget_ns.max(0) as u64) / 1_000,
                        grants: cs.epoch_grants,
                        delivered: cs.delivered as u32,
                    });
                }
            }
            for cs in cells.iter_mut() {
                cs.epoch_grants = 0;
            }
            recompute_budgets(&mut cells, epoch_ns);
            epoch_idx += 1;
            epoch_end += Duration::nanos(epoch_ns);
        }

        // Contending readers: every reader of a cell that has
        // servable work and epoch budget left.
        contenders.clear();
        let mut budget_blocked = false;
        for cs in cells.iter() {
            let has_work = if serial {
                cs.remaining > 0
            } else {
                !cs.ring.is_empty()
            };
            if !has_work {
                continue;
            }
            if cs.budget_ns <= 0 && n_cells > 1 {
                budget_blocked = true;
                continue;
            }
            contenders.extend(cs.readers.clone());
        }
        if contenders.is_empty() {
            if budget_blocked {
                queue.schedule(epoch_end.max(now), Wake::Access);
                access_pending = true;
            }
            // Otherwise: all remaining work is cooling down; the next
            // Ready event reschedules the access loop.
            continue;
        }

        // DCF: simultaneous expiry is a collision.
        contend(&mut stations, &contenders, &mut rng, &mut round);
        let t_access = now + round.wait();
        let collided = round.collided();

        // Each winner's cell policy picks a tag; winners transmit
        // simultaneously (their batches overlap in the air).
        let mut t_end = t_access;
        served.clear();
        for &r in &round.winners {
            let Some(&(ci, reader_global)) = reader_home.get(r) else {
                continue;
            };
            let Some(pick) = pick_tag(store, &mut cells, ci, policy) else {
                // The cell's last servable tag vanished between the
                // contention snapshot and now (same-access double win);
                // the reader transmits nothing.
                continue;
            };
            let t = pick as usize;
            // Serve up to `batch` rounds back to back: one marker
            // envelope, abort on dead air or completion.
            let exch = store.exchange_ns.get(t).copied().unwrap_or(0) as u64;
            let mut t_round = t_access + MARKER_AIRTIME;
            let mut spent = MARKER_AIRTIME.as_nanos();
            let mut dead = false;
            for _ in 0..batch {
                let awake = store.awake(duty_ref, t, t_round);
                if let Some(r) = store.rounds.get_mut(t) {
                    *r += 1;
                }
                spent += exch;
                t_round += Duration::nanos(exch);
                if !awake {
                    probe_rounds += 1;
                    dead = true;
                    break; // dead air: reader aborts the batch
                }
                let p = store.p_fail.get(t).copied().unwrap_or(0.0) as f64;
                let failed = if collided {
                    rng.chance(COLLISION_CHUNK_FAIL) || rng.chance(p)
                } else {
                    rng.chance(p)
                };
                if !failed {
                    if let Some(left) = store.chunks_left.get_mut(t) {
                        *left = left.saturating_sub(1);
                        if *left == 0 {
                            if let Some(f) = store.finished_ns.get_mut(t) {
                                *f = t_round.nanos();
                            }
                            break;
                        }
                    }
                }
            }
            if let Some(a) = store.airtime_ns.get_mut(t) {
                *a += spent;
            }
            let t_busy = t_access + Duration::nanos(spent);
            t_end = t_end.max(t_busy);
            served.push((ci, t, spent));
            // Cooldown inference + requeue.
            let finished = store.finished_ns.get(t).copied().unwrap_or(0) != u64::MAX;
            if finished {
                if let Some(cs) = cells.get_mut(ci) {
                    cs.remaining -= 1;
                    cs.delivered += 1;
                }
                remaining_total -= 1;
                let rec: &mut dyn Recorder = if tracing { &mut buf } else { &mut null };
                if rec.enabled() {
                    rec.record(&Event::NetSessionDone {
                        round: access_round,
                        tag: store.global.get(t).copied().unwrap_or(0) as u32,
                        delivered: true,
                        rounds: store.rounds.get(t).copied().unwrap_or(0),
                        payload_bits: store.chunks_total.get(t).copied().unwrap_or(0) as u32
                            * CHUNK_PAYLOAD_BITS as u32,
                        latency_us: store.finished_ns.get(t).copied().unwrap_or(0) / 1_000,
                    });
                }
            } else if dead {
                let streak = store.streak.get_mut(t).map_or(0, |s| {
                    *s = s.saturating_add(1);
                    *s
                });
                match cooldown(streak.into(), Duration::nanos(exch)).filter(|_| !serial) {
                    Some(wait) => {
                        queue.schedule((t_busy + wait).max(now), Wake::Ready(t as u32));
                    }
                    None => requeue(store, &mut cells, ci, t, policy),
                }
            } else {
                if let Some(s) = store.streak.get_mut(t) {
                    *s = 0;
                }
                requeue(store, &mut cells, ci, t, policy);
            }
            let rec: &mut dyn Recorder = if tracing { &mut buf } else { &mut null };
            if rec.enabled() && !collided {
                rec.record(&Event::NetGrant {
                    round: access_round,
                    client: reader_global as u32,
                    tag: store.global.get(t).copied().unwrap_or(0) as u32,
                    airtime_us: spent / 1_000,
                });
            }
        }

        // Access accounting: contention outcome, budgets, summaries.
        let busy = t_end.saturating_since(t_access);
        if collided {
            collisions += 1;
            let rec: &mut dyn Recorder = if tracing { &mut buf } else { &mut null };
            if rec.enabled() {
                rec.record(&Event::NetCollision {
                    round: access_round,
                    clients: round.winners.len() as u32,
                    airtime_us: busy.as_nanos() / 1_000,
                });
            }
        } else if !served.is_empty() {
            grants += 1;
        }
        for &(ci, _, spent) in &served {
            if let Some(cs) = cells.get_mut(ci) {
                cs.budget_ns -= spent as i64;
                cs.airtime_ns += spent;
                cs.epoch_grants += 1;
                if collided {
                    cs.collisions += 1;
                } else {
                    cs.grants += 1;
                }
            }
        }
        access_round += 1;
        elapsed = t_end.min(end).saturating_since(Instant::ZERO);
        busy_until = t_end;
        if remaining_total > 0 {
            queue.schedule(t_end, Wake::Access);
            access_pending = true;
        }
    }

    // Close the in-progress epoch so every traced run documents the
    // budgets it ran under, even when it finishes inside epoch 0.
    if tracing && buf.enabled() {
        for cs in cells.iter() {
            buf.record(&Event::NetCellEpoch {
                cell: cs.cell as u32,
                epoch: epoch_idx as u32,
                budget_us: (cs.budget_ns.max(0) as u64) / 1_000,
                grants: cs.epoch_grants,
                delivered: cs.delivered as u32,
            });
        }
    }

    DomainOut {
        tags: (0..store.len())
            .map(|t| {
                (
                    store.global[t], // lint:allow(panic_path) t < store.len(), all SoA vecs same length
                    store.rounds[t], // lint:allow(panic_path) t < store.len()
                    store.airtime_ns[t], // lint:allow(panic_path) t < store.len()
                    store.finished_ns[t], // lint:allow(panic_path) t < store.len()
                    store.message_bits[t], // lint:allow(panic_path) t < store.len()
                    store.deadline_ns[t], // lint:allow(panic_path) t < store.len()
                )
            })
            .collect(),
        cells: cells
            .iter()
            .map(|cs| CellSummary {
                cell: cs.cell,
                domain,
                channel: cfg.cell_channel(cs.cell),
                readers: cs.readers.len(),
                tags: cs.members.len(),
                delivered: cs.delivered,
                grants: cs.grants,
                collisions: cs.collisions,
                airtime: Duration::nanos(cs.airtime_ns),
            })
            .collect(),
        grants,
        collisions,
        probe_rounds,
        elapsed,
        buf,
    }
}

/// Re-divide one epoch of airtime among a domain's cells proportional
/// to backlog (tags not yet complete). Single-cell domains get the
/// whole epoch — the inter-cell layer only bites where cells actually
/// share a medium.
fn recompute_budgets(cells: &mut [CellState], epoch_ns: u64) {
    let total: u64 = cells.iter().map(|c| c.remaining as u64).sum();
    let n = cells.len() as u64;
    for cs in cells.iter_mut() {
        cs.budget_ns = if n <= 1 || total == 0 {
            epoch_ns as i64
        } else {
            (epoch_ns * cs.remaining as u64 / total) as i64
        };
    }
}

/// Pick the next tag of cell `ci` under `policy`, removing it from the
/// servable structures. `None` when the cell has nothing servable.
fn pick_tag(
    store: &mut TagStore,
    cells: &mut [CellState],
    ci: usize,
    policy: SchedulerKind,
) -> Option<u32> {
    let cs = cells.get_mut(ci)?;
    match policy {
        SchedulerKind::Serial => {
            // Lowest incomplete member, cooldowns ignored — the
            // poll-until-done baseline.
            while cs.serial_cursor < cs.members.len() {
                let t = cs.members.get(cs.serial_cursor).copied()?;
                if store.finished_ns.get(t as usize).copied().unwrap_or(0) == u64::MAX {
                    return Some(t);
                }
                cs.serial_cursor += 1;
            }
            None
        }
        SchedulerKind::Rr => cs.ring.pop_front(),
        SchedulerKind::Edf => {
            // Scan for the nearest (deadline, tag) — O(ring), only on
            // the EDF path.
            let best = cs
                .ring
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| {
                    (
                        store
                            .deadline_ns
                            .get(t as usize)
                            .copied()
                            .unwrap_or(u64::MAX),
                        t,
                    )
                })
                .map(|(i, _)| i)?;
            cs.ring.swap_remove_back(best)
        }
        SchedulerKind::Fair | SchedulerKind::Pred => {
            // DRR on airtime credit: serve the first ring member whose
            // credit covers one round; a full empty rotation replenishes
            // everyone by the cell quantum. Bounded: exchange costs span
            // ≤ ~8×, so a handful of rotations always qualifies someone.
            let mut rotations = 0u32;
            let mut scanned = 0usize;
            while let Some(t) = cs.ring.pop_front() {
                let need = store.exchange_ns.get(t as usize).copied().unwrap_or(0) as u64;
                let credit = store.deficit_ns.get(t as usize).copied().unwrap_or(0);
                if credit >= need || rotations > 16 {
                    return Some(t);
                }
                cs.ring.push_back(t);
                scanned += 1;
                if scanned >= cs.ring.len() {
                    scanned = 0;
                    rotations += 1;
                    for &u in cs.ring.iter() {
                        if let Some(d) = store.deficit_ns.get_mut(u as usize) {
                            *d = d.saturating_add(cs.quantum_ns);
                        }
                    }
                }
            }
            None
        }
    }
}

/// Return a served, unfinished, non-cooling tag to its cell's
/// servable structures. Under `fair`/`pred` this charges the tag's DRR
/// credit one exchange, whatever the batch actually spent (DESIGN.md
/// §4j says why the charge stays that way).
fn requeue(
    store: &mut TagStore,
    cells: &mut [CellState],
    ci: usize,
    t: usize,
    policy: SchedulerKind,
) {
    if matches!(policy, SchedulerKind::Fair | SchedulerKind::Pred) {
        let spent = store.exchange_ns.get(t).copied().unwrap_or(0) as u64;
        if let Some(d) = store.deficit_ns.get_mut(t) {
            *d = d.saturating_sub(spent);
        }
    }
    if !matches!(policy, SchedulerKind::Serial) {
        if let Some(cs) = cells.get_mut(ci) {
            cs.ring.push_back(t as u32);
        }
    }
}

/// Run one metro-scale inventory across up to `threads` workers.
///
/// Contention domains are simulated independently (their mediums
/// cannot interfere) and merged in domain order; when `rec` is
/// attached each domain's buffered trace replays behind a `shard`
/// marker, preceded by one `net.cell_assign` per cell — so the full
/// trace and the report are byte-identical at any thread count.
pub fn run_metro(
    cfg: &MetroConfig,
    threads: usize,
    rec: &mut dyn Recorder,
) -> Result<MetroReport, NetError> {
    if cfg.cells == 0 {
        return Err(NetError::NoCells);
    }
    if cfg.readers == 0 {
        return Err(NetError::NoClients);
    }
    if cfg.tags == 0 {
        return Err(NetError::NoTags);
    }
    let topo = Topology::build(cfg);
    if rec.enabled() {
        for c in 0..cfg.cells {
            let tags_in_cell = if c < cfg.tags {
                (cfg.tags - c - 1) / cfg.cells + 1
            } else {
                0
            };
            rec.record(&Event::NetCellAssign {
                cell: c as u32,
                channel: cfg.cell_channel(c) as u32,
                domain: topo.cell_domain.get(c).copied().unwrap_or(0) as u32,
                readers: topo.cell_readers.get(c).map_or(0, |v| v.len()) as u32,
                tags: tags_in_cell as u32,
            });
        }
    }
    let tracing = rec.enabled();
    let results = par_map(topo.domains, threads, |d| {
        simulate_domain(cfg, &topo, d, tracing)
    });

    let mut delivered = 0usize;
    let mut delivered_bits = 0u64;
    let mut deadline_hits = 0usize;
    let mut grants = 0u64;
    let mut collisions = 0u64;
    let mut probe_rounds = 0u64;
    let mut airtime = Duration::ZERO;
    let mut elapsed = Duration::ZERO;
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut cell_summaries: Vec<CellSummary> = Vec::with_capacity(cfg.cells);
    for (d, out) in results.into_iter().enumerate() {
        if rec.enabled() {
            rec.record(&Event::Shard {
                index: d as u32,
                base_round: 0,
                rounds: (out.grants + out.collisions) as u32,
            });
            out.buf.replay_into(rec);
        }
        grants += out.grants;
        collisions += out.collisions;
        probe_rounds += out.probe_rounds;
        elapsed = elapsed.max(out.elapsed);
        for &(_, _, airtime_ns, finished_ns, message_bits, deadline_ns) in &out.tags {
            airtime += Duration::nanos(airtime_ns);
            if finished_ns != u64::MAX {
                delivered += 1;
                delivered_bits += message_bits as u64;
                latencies_us.push(finished_ns as f64 / 1e3);
                if finished_ns <= deadline_ns {
                    deadline_hits += 1;
                }
            }
        }
        cell_summaries.extend(out.cells);
    }
    cell_summaries.sort_by_key(|c| c.cell);
    latencies_us.sort_by(f64::total_cmp);
    Ok(MetroReport {
        scheduler: cfg.scheduler,
        cells: cfg.cells,
        readers: cfg.readers,
        tags: cfg.tags,
        domains: topo.domains,
        delivered,
        elapsed,
        grants,
        collisions,
        probe_rounds,
        airtime,
        delivered_bits,
        deadline_hits,
        cell_summaries,
        latencies_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(cells: usize, readers: usize, tags: usize, kind: SchedulerKind) -> MetroConfig {
        MetroConfig::inventory(cells, readers, tags, kind, Duration::secs(30), 0xC0FFEE)
    }

    #[test]
    fn clean_metro_delivers_every_tag() {
        let rep = run_metro(&small(4, 4, 64, SchedulerKind::Fair), 1, &mut NullRecorder)
            .expect("valid metro");
        assert_eq!(rep.delivered, 64, "{rep:?}");
        assert_eq!(
            rep.domains, 4,
            "reuse-3 on a 2x2 grid fully separates cells"
        );
        assert!(rep.grants > 0);
        assert!(rep.latency_percentile(99.0).is_some());
    }

    #[test]
    fn same_seed_same_report_and_any_thread_count() {
        let cfg = small(9, 9, 200, SchedulerKind::Fair);
        let mut one = BufferRecorder::new();
        let mut four = BufferRecorder::new();
        let a = run_metro(&cfg, 1, &mut one).expect("valid");
        let b = run_metro(&cfg, 4, &mut four).expect("valid");
        assert_eq!(a, b);
        assert_eq!(one.events(), four.events());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small(4, 4, 40, SchedulerKind::Fair);
        let a = run_metro(&cfg, 1, &mut NullRecorder).expect("valid");
        cfg.seed ^= 0xDEAD;
        let b = run_metro(&cfg, 1, &mut NullRecorder).expect("valid");
        assert_ne!(a, b, "seed must steer the simulation");
    }

    #[test]
    fn single_channel_merges_neighbouring_cells_into_domains() {
        let mut cfg = small(4, 4, 16, SchedulerKind::Fair);
        cfg.channels = 1;
        let rep = run_metro(&cfg, 1, &mut NullRecorder).expect("valid");
        assert!(
            rep.domains < rep.cells,
            "co-channel adjacent cells must share a contention domain ({rep:?})"
        );
        assert_eq!(rep.delivered, 16);
    }

    #[test]
    fn multi_reader_single_channel_domain_collides_and_recovers() {
        let mut cfg = small(2, 4, 24, SchedulerKind::Fair);
        cfg.channels = 1; // both cells on one channel, 20 m apart
        let mut buf = BufferRecorder::new();
        let rep = run_metro(&cfg, 1, &mut buf).expect("valid");
        assert!(rep.collisions > 0, "two readers on one medium must collide");
        assert_eq!(rep.delivered, 24, "collisions must be survivable");
        let kinds: Vec<&str> = buf.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"net.cell_assign"));
        assert!(kinds.contains(&"net.cell_epoch"));
        assert!(kinds.contains(&"net.collision"));
        assert!(kinds.contains(&"net.session_done"));
    }

    #[test]
    fn scheduler_beats_serial_polling_on_duty_cycled_metro() {
        let duty = |kind| small(4, 4, 200, kind).with_duty_cycle(Duration::secs(4), 0.08);
        let fair = run_metro(&duty(SchedulerKind::Fair), 1, &mut NullRecorder).expect("valid");
        let serial = run_metro(&duty(SchedulerKind::Serial), 1, &mut NullRecorder).expect("valid");
        assert!(
            fair.goodput_bps() > 4.0 * serial.goodput_bps(),
            "fair {:.0} bps vs serial {:.0} bps",
            fair.goodput_bps(),
            serial.goodput_bps()
        );
        assert!(
            serial.probe_rounds > 0,
            "serial must burn probes on sleepers"
        );
    }

    #[test]
    fn budget_layer_keeps_cochannel_cells_within_epoch_budgets() {
        // Two cells forced onto one medium with very different
        // backlogs: the budget layer must keep the light cell served.
        let mut cfg = small(2, 2, 40, SchedulerKind::Rr);
        cfg.channels = 1;
        let rep = run_metro(&cfg, 1, &mut NullRecorder).expect("valid");
        assert_eq!(rep.delivered, 40);
        for cs in &rep.cell_summaries {
            assert!(cs.delivered == cs.tags, "cell {cs:?} starved");
        }
    }

    #[test]
    fn edf_and_rr_policies_complete() {
        for kind in [SchedulerKind::Edf, SchedulerKind::Rr] {
            let rep = run_metro(&small(4, 4, 48, kind), 1, &mut NullRecorder).expect("valid");
            assert_eq!(rep.delivered, 48, "{kind:?}");
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_metros() {
        let mut cfg = small(1, 1, 1, SchedulerKind::Rr);
        cfg.cells = 0;
        assert_eq!(
            run_metro(&cfg, 1, &mut NullRecorder),
            Err(NetError::NoCells)
        );
        let mut cfg = small(1, 1, 1, SchedulerKind::Rr);
        cfg.readers = 0;
        assert_eq!(
            run_metro(&cfg, 1, &mut NullRecorder),
            Err(NetError::NoClients)
        );
        let mut cfg = small(1, 1, 1, SchedulerKind::Rr);
        cfg.tags = 0;
        assert_eq!(run_metro(&cfg, 1, &mut NullRecorder), Err(NetError::NoTags));
    }

    #[test]
    fn grid_geometry_is_sane() {
        let cfg = small(10, 10, 10, SchedulerKind::Rr);
        assert_eq!(cfg.grid_side(), 4);
        let c0 = cfg.cell_center(0);
        let c1 = cfg.cell_center(1);
        assert!((c0.distance(c1) - CELL_SIZE_M).abs() < 1e-9);
        for c in 0..10 {
            assert!(cfg.cell_channel(c) < 3);
        }
    }
}
