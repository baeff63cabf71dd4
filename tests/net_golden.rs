//! Golden pins for the network mechanisms shared by the DCF simulator,
//! the fleet engine, the metro engine and the session transports.
//!
//! Every run below is deterministic from its seed. Each case records the
//! report counters as text plus a 64-bit FNV-1a hash of the JSONL trace
//! bytes, so a refactor of the contention round, the cooldown rule, the
//! duty-cycle test or the selective-repeat window that changes a single
//! event, field or counter fails here. The constants were captured
//! before those mechanisms were merged into one copy each. The runs are
//! small enough for a debug build.
//!
//! On a mismatch the test prints the whole table as it now is, in the
//! same layout as the constants.

use witag::fountain::FountainQuery;
use witag::tagnet::{
    run_fountain_session, run_session, RoundOutcome, SessionConfig, SessionOutcome, SessionQuery,
};
use witag_faults::FaultPlan;
use witag_mac::dcf::{simulate, DcfStation};
use witag_net::{run_fleet, run_metro, FleetConfig, MetroConfig, SchedulerKind, Transport};
use witag_obs::JsonlRecorder;
use witag_sim::time::Duration;
use witag_sim::Rng;

const POLICIES: [SchedulerKind; 5] = [
    SchedulerKind::Rr,
    SchedulerKind::Fair,
    SchedulerKind::Edf,
    SchedulerKind::Serial,
    SchedulerKind::Pred,
];

/// 64-bit FNV-1a over the trace bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned run: its name, its counters, its trace hash.
type Row = (String, String, u64);

fn check(actual: &[Row], expected: &[(&str, &str, u64)]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| a.0 == e.0 && a.1 == e.1 && a.2 == e.2);
    if !same {
        let mut table = String::new();
        for (name, counters, hash) in actual {
            table.push_str(&format!(
                "    (\"{name}\", \"{counters}\", 0x{hash:016x}),\n"
            ));
        }
        panic!("golden mismatch; the runs now give:\n{table}");
    }
}

fn trace_done(rec: JsonlRecorder<Vec<u8>>) -> u64 {
    fnv1a(&rec.finish().expect("in-memory trace"))
}

/// Six tags on two clients, every link hostile at half intensity and
/// awake a quarter of each 1 s period.
fn hostile_duty_fleet(kind: SchedulerKind, transport: Transport) -> FleetConfig {
    let mut cfg = FleetConfig::inventory(2, 6, kind, Duration::secs(3), 0x60)
        .with_duty_cycle(Duration::secs(1), 0.25)
        .with_transport(transport);
    for (i, p) in cfg.profiles.iter_mut().enumerate() {
        p.faults = Some(FaultPlan::hostile_scaled(0x60 ^ i as u64, 0.5));
    }
    cfg
}

const FLEET: &[(&str, &str, u64)] = &[
    ("arq/rr", "delivered=5 grants=414 collisions=2 elapsed_ns=1848908000 rounds=418 payload_bits=1140 deadlines=5", 0x84784ef7be9ee97f),
    ("arq/fair", "delivered=6 grants=499 collisions=3 elapsed_ns=2151837000 rounds=505 payload_bits=1220 deadlines=4", 0x590f9c9788f89eae),
    ("arq/edf", "delivered=5 grants=403 collisions=5 elapsed_ns=2986295000 rounds=413 payload_bits=1060 deadlines=5", 0x170de132dad00c5c),
    ("arq/serial", "delivered=6 grants=1026 collisions=64 elapsed_ns=2536498000 rounds=1154 payload_bits=1220 deadlines=6", 0x93771db4f86acc84),
    ("arq/pred", "delivered=6 grants=499 collisions=3 elapsed_ns=2151837000 rounds=505 payload_bits=1220 deadlines=4", 0x6778cf84fecb7ea8),
    ("fountain/rr", "delivered=5 grants=534 collisions=2 elapsed_ns=2947500000 rounds=538 payload_bits=1140 deadlines=4", 0x07da640e89de67af),
    ("fountain/fair", "delivered=6 grants=490 collisions=3 elapsed_ns=2127898000 rounds=496 payload_bits=1220 deadlines=4", 0x8458d16fe27535f1),
    ("fountain/edf", "delivered=6 grants=385 collisions=1 elapsed_ns=2313172000 rounds=387 payload_bits=1220 deadlines=6", 0xc751aa68ae419708),
    ("fountain/serial", "delivered=2 grants=1529 collisions=95 elapsed_ns=3000000000 rounds=1719 payload_bits=840 deadlines=2", 0xe706bc61f493a8c9),
    ("fountain/pred", "delivered=6 grants=490 collisions=3 elapsed_ns=2127898000 rounds=496 payload_bits=1220 deadlines=4", 0xe3407a6bd51fadd7),
];

#[test]
fn hostile_duty_cycled_fleet_is_pinned() {
    let mut rows = Vec::new();
    for transport in [Transport::Arq, Transport::Fountain] {
        for kind in POLICIES {
            let mut rec = JsonlRecorder::in_memory();
            let rep =
                run_fleet(&hostile_duty_fleet(kind, transport), &mut rec).expect("valid fleet");
            let rounds: u32 = rep.tags.iter().map(|t| t.rounds).sum();
            let bits: u32 = rep.tags.iter().map(|t| t.payload_bits).sum();
            let counters = format!(
                "delivered={} grants={} collisions={} elapsed_ns={} rounds={} payload_bits={} deadlines={}",
                rep.delivered(),
                rep.grants,
                rep.collisions,
                rep.elapsed.as_nanos(),
                rounds,
                bits,
                rep.deadline_hits(),
            );
            rows.push((
                format!("{}/{}", transport.name(), kind.name()),
                counters,
                trace_done(rec),
            ));
        }
    }
    check(&rows, FLEET);
}

const METRO: &[(&str, &str, u64)] = &[
    ("ch1/rr", "domains=1 delivered=119 grants=3400 collisions=394 probes=3892 elapsed_ns=9954801000 airtime_ns=10106108000 bits=21024 deadlines=46", 0xd2c78bea623d29bc),
    ("ch1/fair", "domains=1 delivered=122 grants=3541 collisions=414 probes=4051 elapsed_ns=9924623000 airtime_ns=10099012000 bits=21504 deadlines=51", 0x009d60b93c01a287),
    ("ch1/edf", "domains=1 delivered=154 grants=3264 collisions=380 probes=3688 elapsed_ns=9828067000 airtime_ns=9905396000 bits=29184 deadlines=49", 0xfda2b4ecd933d34e),
    ("ch1/serial", "domains=1 delivered=24 grants=4715 collisions=523 probes=5724 elapsed_ns=9986718000 airtime_ns=10043688000 bits=4512 deadlines=2", 0xf90447c8d21aa450),
    ("ch1/pred", "domains=1 delivered=122 grants=3541 collisions=414 probes=4051 elapsed_ns=9924623000 airtime_ns=10099012000 bits=21504 deadlines=51", 0x009d60b93c01a287),
    ("ch3/rr", "domains=4 delivered=200 grants=4572 collisions=0 probes=4195 elapsed_ns=5490734000 airtime_ns=10106392000 bits=38400 deadlines=161", 0x7bd88aca821afb0c),
    ("ch3/fair", "domains=4 delivered=200 grants=5119 collisions=0 probes=4742 elapsed_ns=6896317000 airtime_ns=11687500000 bits=38400 deadlines=153", 0x6b2653aad8c97c4a),
    ("ch3/edf", "domains=4 delivered=200 grants=6180 collisions=0 probes=5798 elapsed_ns=6772685000 airtime_ns=12486556000 bits=38400 deadlines=164", 0x34fd595356aff285),
    ("ch3/serial", "domains=4 delivered=32 grants=22885 collisions=0 probes=22825 elapsed_ns=10000000000 airtime_ns=37677788000 bits=6144 deadlines=2", 0x65664740f6385d79),
    ("ch3/pred", "domains=4 delivered=200 grants=5119 collisions=0 probes=4742 elapsed_ns=6896317000 airtime_ns=11687500000 bits=38400 deadlines=153", 0x6b2653aad8c97c4a),
];

#[test]
fn duty_cycled_metro_is_pinned() {
    let mut rows = Vec::new();
    for channels in [1, 3] {
        for kind in POLICIES {
            let mut cfg = MetroConfig::inventory(4, 4, 200, kind, Duration::secs(10), 0x61)
                .with_duty_cycle(Duration::secs(4), 0.08);
            cfg.channels = channels;
            let mut rec = JsonlRecorder::in_memory();
            let rep = run_metro(&cfg, 1, &mut rec).expect("valid metro");
            let counters = format!(
                "domains={} delivered={} grants={} collisions={} probes={} elapsed_ns={} airtime_ns={} bits={} deadlines={}",
                rep.domains,
                rep.delivered,
                rep.grants,
                rep.collisions,
                rep.probe_rounds,
                rep.elapsed.as_nanos(),
                rep.airtime.as_nanos(),
                rep.delivered_bits,
                rep.deadline_hits,
            );
            rows.push((
                format!("ch{channels}/{}", kind.name()),
                counters,
                trace_done(rec),
            ));
        }
    }
    check(&rows, METRO);
}

/// `simulate` records no trace, so the hash column is 0.
const DCF: &[(&str, &str, u64)] = &[
    ("dcf", "elapsed_ns=1000358000 collisions=70 successes=610 participations=142 [205 40 307500000] [188 45 282000000] [165 42 247500000] [52 15 15600000]", 0x0000000000000000),
];

#[test]
fn dcf_outcome_is_pinned() {
    let mut stations = vec![DcfStation::saturated(Duration::micros(1500)); 3];
    stations.push(DcfStation::poisson(Duration::micros(300), 50.0));
    let out = simulate(&mut stations, Duration::secs(1), 0xDCF);
    let mut counters = format!(
        "elapsed_ns={} collisions={} successes={} participations={}",
        out.elapsed.as_nanos(),
        out.collision_events,
        out.successes,
        out.collision_participations,
    );
    for s in &stations {
        counters.push_str(&format!(
            " [{} {} {}]",
            s.delivered,
            s.collisions,
            s.airtime_used.as_nanos()
        ));
    }
    check(&[("dcf".to_string(), counters, 0)], DCF);
}

/// A seeded lossy channel. The query is lost one time in twenty, the
/// whole block ACK another one time in twenty, and every surviving
/// readout bit flips with probability 0.04. One round in thirty starts
/// a sixteen-round outage of dead air, long enough to drive the ARQ
/// session through backoff and resync.
struct LossyChannel {
    rng: Rng,
    outage: u32,
}

impl LossyChannel {
    fn new(seed: u64) -> Self {
        LossyChannel {
            rng: Rng::seed_from_u64(seed),
            outage: 0,
        }
    }

    fn round(&mut self, tx: &[u8]) -> RoundOutcome {
        if self.outage == 0 && self.rng.chance(1.0 / 30.0) {
            self.outage = 16;
        }
        if self.outage > 0 {
            self.outage -= 1;
            return RoundOutcome {
                tag_heard: false,
                readout: Some(vec![1; tx.len()]),
            };
        }
        if self.rng.chance(0.05) {
            return RoundOutcome {
                tag_heard: false,
                readout: None,
            };
        }
        if self.rng.chance(0.05) {
            return RoundOutcome {
                tag_heard: true,
                readout: None,
            };
        }
        let readout = tx
            .iter()
            .map(|&b| if self.rng.chance(0.04) { b ^ 1 } else { b })
            .collect();
        RoundOutcome {
            tag_heard: true,
            readout: Some(readout),
        }
    }
}

const SESSION_MESSAGE: &[u8] = b"golden pin: one window, one cooldown rule, one DCF round";

const SESSIONS: &[(&str, &str, u64)] = &[
    ("arq/1", "delivered=true rounds=108 queries=105 idle=3 retx=49 resyncs=15 slides=17 losses=49 crc=7 desync=0 payload_bits=480", 0x5ec009d092da8e7c),
    ("fountain/1", "delivered=true rounds=46 queries=39 idle=7 symbols=36 accepted=24 infos=0 syncs=3 losses=12 crc=3 payload_bits=480", 0x4da43607c5d8e2b0),
    ("arq/2", "delivered=true rounds=88 queries=87 idle=1 retx=50 resyncs=7 slides=6 losses=21 crc=13 desync=0 payload_bits=480", 0x51fc33112a816399),
    ("fountain/2", "delivered=true rounds=33 queries=33 idle=0 symbols=32 accepted=26 infos=1 syncs=0 losses=2 crc=5 payload_bits=480", 0xaf094272f627bf0d),
];

#[test]
fn lossy_sessions_are_pinned() {
    let mut rows = Vec::new();
    for seed in [1u64, 2] {
        let mut ch = LossyChannel::new(seed);
        let cfg = SessionConfig {
            max_rounds: 3000,
            ..SessionConfig::default()
        };
        let mut rec = JsonlRecorder::in_memory();
        let rep = run_session(
            SESSION_MESSAGE,
            62,
            &cfg,
            &mut rec,
            |_q: &SessionQuery, tx, _rec| ch.round(tx),
        )
        .expect("valid session");
        let s = rep.stats;
        let counters = format!(
            "delivered={} rounds={} queries={} idle={} retx={} resyncs={} slides={} losses={} crc={} desync={} payload_bits={}",
            matches!(rep.outcome, SessionOutcome::Delivered(ref b) if b == SESSION_MESSAGE),
            s.rounds,
            s.queries,
            s.idle_rounds,
            s.retransmissions,
            s.resyncs,
            s.slides,
            s.losses,
            s.crc_failures,
            s.desync_events,
            s.payload_bits,
        );
        rows.push((format!("arq/{seed}"), counters, trace_done(rec)));

        let mut ch = LossyChannel::new(seed);
        let mut rec = JsonlRecorder::in_memory();
        let rep = run_fountain_session(
            SESSION_MESSAGE,
            62,
            4096,
            &mut rec,
            |_q: &FountainQuery, tx, _rec| ch.round(tx),
        )
        .expect("valid fountain session");
        let s = rep.stats;
        let counters = format!(
            "delivered={} rounds={} queries={} idle={} symbols={} accepted={} infos={} syncs={} losses={} crc={} payload_bits={}",
            matches!(rep.outcome, SessionOutcome::Delivered(ref b) if b == SESSION_MESSAGE),
            s.rounds,
            s.queries,
            s.idle_rounds,
            s.symbols,
            s.accepted,
            s.infos,
            s.syncs,
            s.losses,
            s.crc_failures,
            s.payload_bits,
        );
        rows.push((format!("fountain/{seed}"), counters, trace_done(rec)));
    }
    check(&rows, SESSIONS);
}
