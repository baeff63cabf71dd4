//! Multi-station DCF (CSMA/CA) simulation.
//!
//! A slot-synchronous simulator of the 802.11 distributed coordination
//! function: n stations contend with binary-exponential backoff;
//! simultaneous countdown expiry is a collision (EIFS-like recovery),
//! single winners transmit `frame + SIFS + ACK`. This is the classic
//! Bianchi-model setting, built so the reproduction can answer a question
//! the paper waves at (§1 "Non-Interfering", §8): *a WiTAG querier is an
//! ordinary DCF station* — its query exchanges take a fair share of the
//! medium and nothing more, and its achievable query rate under
//! contention follows directly.
//!
//! Fidelity notes: perfect carrier sensing (no hidden terminals), no
//! capture effect, immediate ACKs; retry limits are not modelled (frames
//! retry until delivered) since saturated fairness and collision
//! probability — what the tests pin — do not depend on them.

use crate::access::{contend, Round, Station};
use witag_phy::params::timing;
use witag_sim::rng::Rng;
use witag_sim::time::{Duration, Instant};

/// One contending station.
#[derive(Debug, Clone)]
pub struct DcfStation {
    /// Airtime of this station's frames (data + SIFS + ACK).
    pub exchange_airtime: Duration,
    /// `None` = saturated (always has a frame); `Some(rate)` = Poisson
    /// arrivals at `rate` frames/s.
    pub arrival_rate: Option<f64>,
    access: Station,
    next_arrival: Option<Instant>,
    queued: usize,
    /// Completed exchanges.
    pub delivered: u64,
    /// Collisions participated in.
    pub collisions: u64,
    /// Airtime spent transmitting successfully.
    pub airtime_used: Duration,
}

impl DcfStation {
    /// A saturated station with the given exchange airtime.
    pub fn saturated(exchange_airtime: Duration) -> Self {
        DcfStation {
            exchange_airtime,
            arrival_rate: None,
            access: Station::default(),
            next_arrival: None,
            queued: 1,
            delivered: 0,
            collisions: 0,
            airtime_used: Duration::ZERO,
        }
    }

    /// A station with Poisson traffic.
    pub fn poisson(exchange_airtime: Duration, rate: f64) -> Self {
        DcfStation {
            arrival_rate: Some(rate),
            queued: 0,
            ..DcfStation::saturated(exchange_airtime)
        }
    }

    fn has_frame(&self) -> bool {
        self.queued > 0 || self.arrival_rate.is_none()
    }
}

impl AsMut<Station> for DcfStation {
    fn as_mut(&mut self) -> &mut Station {
        &mut self.access
    }
}

/// Result of a DCF simulation. Per-station counters stay in the
/// caller's `&mut [DcfStation]` — [`simulate`] borrows the stations
/// instead of consuming and returning them, so callers keep ownership
/// and nothing is cloned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcfOutcome {
    /// Total simulated time.
    pub elapsed: Duration,
    /// Total collision events on the medium.
    pub collision_events: u64,
    /// Total successful transmissions.
    pub successes: u64,
    /// Station-side collision participations (each collision event
    /// counts once per involved station).
    pub collision_participations: u64,
}

impl DcfOutcome {
    /// Conditional collision probability: collided attempts / attempts.
    pub fn collision_probability(&self) -> f64 {
        let attempts = self.successes + self.collision_participations;
        if attempts == 0 {
            0.0
        } else {
            self.collision_participations as f64 / attempts as f64
        }
    }
}

/// A station's fraction of the total successful airtime after a
/// [`simulate`] run.
pub fn airtime_share(stations: &[DcfStation], idx: usize) -> f64 {
    let total: f64 = stations.iter().map(|s| s.airtime_used.as_secs_f64()).sum();
    match stations.get(idx) {
        Some(s) if total > 0.0 => s.airtime_used.as_secs_f64() / total,
        _ => 0.0,
    }
}

/// Run DCF with the given stations for `horizon` of simulated time,
/// accumulating per-station counters in place.
pub fn simulate(stations: &mut [DcfStation], horizon: Duration, seed: u64) -> DcfOutcome {
    assert!(!stations.is_empty());
    let mut rng = Rng::seed_from_u64(seed);
    let mut now = Instant::ZERO;
    let end = Instant::ZERO + horizon;
    let mut collision_events = 0u64;
    let mut successes = 0u64;
    let mut collision_participations = 0u64;

    // Initialise arrivals.
    for s in stations.iter_mut() {
        if let Some(rate) = s.arrival_rate {
            s.next_arrival = Some(now + Duration::from_secs_f64(rng.exponential(rate)));
        }
    }

    // Per-access buffers, cleared and refilled each pass.
    let mut contenders: Vec<usize> = Vec::with_capacity(stations.len());
    let mut round = Round::default();
    while now < end {
        // Deliver arrivals up to `now`.
        for s in stations.iter_mut() {
            if let (Some(rate), Some(t)) = (s.arrival_rate, s.next_arrival) {
                let mut t = t;
                while t <= now {
                    s.queued += 1;
                    t += Duration::from_secs_f64(rng.exponential(rate));
                }
                s.next_arrival = Some(t);
            }
        }

        // Stations with frames contend: everyone waits DIFS, then counts
        // down together.
        contenders.clear();
        contenders.extend(
            stations
                .iter()
                .enumerate()
                .filter(|(_, s)| s.has_frame())
                .map(|(i, _)| i),
        );
        if contenders.is_empty() {
            // Idle until the next arrival.
            let next = stations
                .iter()
                .filter_map(|s| s.next_arrival)
                .min()
                .unwrap_or(end);
            now = next.max(now + timing::SLOT);
            continue;
        }

        contend(stations, &contenders, &mut rng, &mut round);
        now += round.wait();

        if let [w] = round.winners[..] {
            let w = &mut stations[w]; // lint:allow(panic_path) winners are contender indices into stations
            now += w.exchange_airtime;
            w.delivered += 1;
            w.airtime_used += w.exchange_airtime;
            if w.arrival_rate.is_some() {
                w.queued -= 1;
            }
            successes += 1;
        } else {
            // Collision: medium busy for the longest involved frame; the
            // round has already doubled the colliders' windows.
            collision_events += 1;
            // A collision involves ≥ 2 winners, so the maximum exists; the
            // fold makes that total without a panic path.
            let busy = round
                .winners
                .iter()
                .map(|&i| stations[i].exchange_airtime)
                .fold(Duration::ZERO, Duration::max);
            now += busy;
            for &i in &round.winners {
                stations[i].collisions += 1;
                collision_participations += 1;
            }
        }
    }

    DcfOutcome {
        elapsed: now - Instant::ZERO,
        collision_events,
        successes,
        collision_participations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: Duration = Duration::micros(1500);

    #[test]
    fn single_station_never_collides() {
        let mut stations = vec![DcfStation::saturated(FRAME)];
        let out = simulate(&mut stations, Duration::secs(1), 1);
        assert_eq!(out.collision_events, 0);
        assert!(stations[0].delivered > 400, "got {}", stations[0].delivered);
    }

    #[test]
    fn saturated_stations_share_fairly() {
        let n = 4;
        let mut stations = vec![DcfStation::saturated(FRAME); n];
        simulate(&mut stations, Duration::secs(4), 2);
        for i in 0..n {
            let share = airtime_share(&stations, i);
            assert!(
                (share - 1.0 / n as f64).abs() < 0.05,
                "station {i} share {share}"
            );
        }
    }

    #[test]
    fn collision_probability_grows_with_population() {
        let p = |n: usize| {
            let mut stations = vec![DcfStation::saturated(FRAME); n];
            simulate(&mut stations, Duration::secs(2), 3).collision_probability()
        };
        let p2 = p(2);
        let p8 = p(8);
        assert!(p8 > p2, "collisions must grow: {p2} -> {p8}");
        assert!(p2 > 0.0 && p8 < 0.6);
    }

    #[test]
    fn collision_probability_matches_station_counters() {
        let mut stations = vec![DcfStation::saturated(FRAME); 4];
        let out = simulate(&mut stations, Duration::secs(2), 7);
        let per_station: u64 = stations.iter().map(|s| s.collisions).sum();
        assert_eq!(out.collision_participations, per_station);
        assert!(out.collision_participations >= 2 * out.collision_events);
    }

    #[test]
    fn aggregate_throughput_degrades_gracefully() {
        let total = |n: usize| {
            let mut stations = vec![DcfStation::saturated(FRAME); n];
            simulate(&mut stations, Duration::secs(2), 4).successes
        };
        let t1 = total(1);
        let t8 = total(8);
        // More stations = more collisions + more contention overhead, but
        // DCF keeps aggregate within a sane band.
        assert!(t8 as f64 > 0.5 * t1 as f64, "{t8} vs {t1}");
        assert!((t8 as f64) < 1.1 * t1 as f64);
    }

    #[test]
    fn poisson_station_keeps_up_under_light_load() {
        // One light sensor-style station among saturated bullies still
        // gets every frame through (queue does not blow up).
        let mut stations = vec![DcfStation::saturated(FRAME); 2];
        stations.push(DcfStation::poisson(Duration::micros(300), 50.0));
        simulate(&mut stations, Duration::secs(4), 5);
        let sensor = &stations[2];
        // ~200 arrivals in 4 s.
        assert!(
            sensor.delivered >= 150,
            "sensor delivered only {}",
            sensor.delivered
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut sa = vec![DcfStation::saturated(FRAME); 3];
        let mut sb = vec![DcfStation::saturated(FRAME); 3];
        let a = simulate(&mut sa, Duration::secs(1), 9);
        let b = simulate(&mut sb, Duration::secs(1), 9);
        assert_eq!(a, b);
    }
}
