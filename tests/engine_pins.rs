//! Simulator schedule pins for every protocol.
//!
//! `tools/sim_schedule.sh` and the `link_queue` pins only cover Flexi-BFT,
//! Flexi-ZZ and PBFT. These tables pin one short fault-free run and one
//! crash-and-rejoin run of all eleven engines, so a change to the engine
//! they share shows up as a moved number for every protocol it touches.
//!
//! When a row no longer matches, the failure message prints the whole table
//! as it now stands, ready to paste in — re-record only when the schedule
//! is meant to move.

use flexitrust::prelude::*;

/// What one run is pinned to.
struct Pin {
    protocol: ProtocolId,
    completed: u64,
    messages: u64,
    events: u64,
    commit_len: usize,
    avg_ms: f64,
    busy_ns: u64,
    tc_total: u64,
    tc_primary: u64,
    /// Per replica: its execution frontier and the first four bytes of its
    /// state digest there (`-` for none).
    frontiers: &'static [(u64, &'static str)],
}

/// The fault-free run: `ScenarioSpec::quick_test`.
fn quick(protocol: ProtocolId) -> ScenarioSpec {
    ScenarioSpec::quick_test(protocol)
}

/// The `sim_crash_recover` shape, shortened: checkpoints every 10, the last
/// replica crashes at 0.25 s and rejoins by state transfer at 0.5 s.
fn crash_recover(protocol: ProtocolId) -> ScenarioSpec {
    let mut spec = ScenarioSpec::quick_test(protocol);
    let last = ReplicaId(spec.replicas() as u32 - 1);
    spec.checkpoint_interval = Some(10);
    spec.duration_us = 570_000;
    spec.chaos = ChaosPlan::crash_then_recover(spec.seed, last, 250_000_000, 500_000_000);
    spec
}

fn row(protocol: ProtocolId, report: &SimReport) -> String {
    let frontiers: Vec<String> = report
        .replica_frontiers
        .iter()
        .map(|(seq, digest)| format!("({seq}, \"{}\")", digest.short_hex()))
        .collect();
    format!(
        "    Pin {{\n        protocol: ProtocolId::{protocol:?},\n        completed: {},\n        \
         messages: {},\n        events: {},\n        commit_len: {},\n        avg_ms: {:.9},\n        \
         busy_ns: {},\n        tc_total: {},\n        tc_primary: {},\n        frontiers: &[{}],\n    }},\n",
        report.completed_txns,
        report.messages_delivered,
        report.events_processed,
        report.commit_log.len(),
        report.avg_latency_ms,
        report.net_busy_ns,
        report.tc_accesses_total,
        report.tc_accesses_primary,
        frontiers.join(", "),
    )
}

fn matches(pin: &Pin, report: &SimReport) -> bool {
    let frontiers: Vec<(u64, String)> = report
        .replica_frontiers
        .iter()
        .map(|(seq, digest)| (*seq, digest.short_hex()))
        .collect();
    let pinned: Vec<(u64, String)> = pin
        .frontiers
        .iter()
        .map(|(seq, digest)| (*seq, digest.to_string()))
        .collect();
    report.completed_txns == pin.completed
        && report.messages_delivered == pin.messages
        && report.events_processed == pin.events
        && report.commit_log.len() == pin.commit_len
        && (report.avg_latency_ms - pin.avg_ms).abs() < 5e-9
        && report.net_busy_ns == pin.busy_ns
        && report.tc_accesses_total == pin.tc_total
        && report.tc_accesses_primary == pin.tc_primary
        && frontiers == pinned
}

/// Runs `spec(protocol)` for every protocol and compares it with `table`,
/// which lists the protocols in `ProtocolId::ALL` order.
fn check(name: &str, spec: fn(ProtocolId) -> ScenarioSpec, table: &[Pin]) {
    let mut actual = String::new();
    let mut moved = Vec::new();
    for (i, protocol) in ProtocolId::ALL.into_iter().enumerate() {
        let report = Simulation::new(spec(protocol)).run();
        actual.push_str(&row(protocol, &report));
        let pin = table.get(i).filter(|pin| pin.protocol == protocol);
        if !pin.is_some_and(|pin| matches(pin, &report)) {
            moved.push(protocol.name());
        }
    }
    assert!(
        moved.is_empty(),
        "{name}: {moved:?} left their pinned schedule; the table now reads\n{actual}"
    );
}

#[test]
fn every_protocol_keeps_its_fault_free_schedule() {
    check("quick_test", quick, QUICK);
}

#[test]
fn every_protocol_keeps_its_crash_and_rejoin_schedule() {
    check("crash_recover", crash_recover, CRASH_RECOVER);
}

const QUICK: &[Pin] = &[
    Pin {
        protocol: ProtocolId::Pbft,
        completed: 19310,
        messages: 83635,
        events: 85803,
        commit_len: 23200,
        avg_ms: 1.044994429,
        busy_ns: 0,
        tc_total: 0,
        tc_primary: 0,
        frontiers: &[
            (2320, "afc99c6c"),
            (2320, "afc99c6c"),
            (2320, "afc99c6c"),
            (2320, "afc99c6c"),
        ],
    },
    Pin {
        protocol: ProtocolId::Zyzzyva,
        completed: 28860,
        messages: 13959,
        events: 48084,
        commit_len: 34770,
        avg_ms: 0.533291055,
        busy_ns: 0,
        tc_total: 0,
        tc_primary: 0,
        frontiers: &[
            (3480, "e0222d33"),
            (3477, "46318ec7"),
            (3477, "46318ec7"),
            (3477, "46318ec7"),
        ],
    },
    Pin {
        protocol: ProtocolId::PbftEa,
        completed: 1610,
        messages: 4534,
        events: 4750,
        commit_len: 2160,
        avg_ms: 16.139509019,
        busy_ns: 0,
        tc_total: 1513,
        tc_primary: 649,
        frontiers: &[(216, "5fa3997c"), (216, "5fa3997c"), (216, "5fa3997c")],
    },
    Pin {
        protocol: ProtocolId::MinBft,
        completed: 2040,
        messages: 3206,
        events: 3473,
        commit_len: 2670,
        avg_ms: 12.946706363,
        busy_ns: 0,
        tc_total: 1070,
        tc_primary: 536,
        frontiers: &[(267, "f4a9d126"), (267, "f4a9d126"), (267, "f4a9d126")],
    },
    Pin {
        protocol: ProtocolId::MinZz,
        completed: 13900,
        messages: 5060,
        events: 21616,
        commit_len: 16830,
        avg_ms: 1.634458318,
        busy_ns: 0,
        tc_total: 5052,
        tc_primary: 1686,
        frontiers: &[(1685, "92328bfd"), (1683, "ddf12f37"), (1683, "ddf12f37")],
    },
    Pin {
        protocol: ProtocolId::OpbftEa,
        completed: 10980,
        messages: 27829,
        events: 29150,
        commit_len: 13210,
        avg_ms: 2.200000000,
        busy_ns: 0,
        tc_total: 9316,
        tc_primary: 4000,
        frontiers: &[(1321, "72cf11ed"), (1321, "72cf11ed"), (1321, "72cf11ed")],
    },
    Pin {
        protocol: ProtocolId::CheapBft,
        completed: 2030,
        messages: 2405,
        events: 2672,
        commit_len: 2670,
        avg_ms: 12.946706360,
        busy_ns: 0,
        tc_total: 803,
        tc_primary: 536,
        frontiers: &[(267, "f4a9d126"), (267, "f4a9d126"), (267, "f4a9d126")],
    },
    Pin {
        protocol: ProtocolId::FlexiBft,
        completed: 21900,
        messages: 52310,
        events: 54893,
        commit_len: 26120,
        avg_ms: 0.862938961,
        busy_ns: 0,
        tc_total: 2622,
        tc_primary: 2622,
        frontiers: &[
            (2612, "d62461dd"),
            (2612, "d62461dd"),
            (2612, "d62461dd"),
            (2612, "d62461dd"),
        ],
    },
    Pin {
        protocol: ProtocolId::FlexiZz,
        completed: 27000,
        messages: 12946,
        events: 16157,
        commit_len: 32230,
        avg_ms: 0.607518400,
        busy_ns: 0,
        tc_total: 3230,
        tc_primary: 3230,
        frontiers: &[
            (3229, "80a7636b"),
            (3223, "43012a66"),
            (3223, "43012a66"),
            (3223, "43012a66"),
        ],
    },
    Pin {
        protocol: ProtocolId::OFlexiBft,
        completed: 2300,
        messages: 5971,
        events: 6269,
        commit_len: 2980,
        avg_ms: 11.538546313,
        busy_ns: 0,
        tc_total: 299,
        tc_primary: 299,
        frontiers: &[
            (298, "cc10c235"),
            (298, "cc10c235"),
            (298, "cc10c235"),
            (298, "cc10c235"),
        ],
    },
    Pin {
        protocol: ProtocolId::OFlexiZz,
        completed: 13800,
        messages: 6699,
        events: 8363,
        commit_len: 16700,
        avg_ms: 1.650514546,
        busy_ns: 0,
        tc_total: 1674,
        tc_primary: 1674,
        frontiers: &[
            (1673, "cc6059a9"),
            (1670, "8186598f"),
            (1670, "8186598f"),
            (1670, "8186598f"),
        ],
    },
];

const CRASH_RECOVER: &[Pin] = &[
    Pin {
        protocol: ProtocolId::Pbft,
        completed: 73660,
        messages: 241129,
        events: 248839,
        commit_len: 77590,
        avg_ms: 1.043635896,
        busy_ns: 0,
        tc_total: 0,
        tc_primary: 0,
        frontiers: &[
            (7759, "63938f89"),
            (7759, "63938f89"),
            (7759, "63938f89"),
            (7759, "63938f89"),
        ],
    },
    Pin {
        protocol: ProtocolId::Zyzzyva,
        completed: 63270,
        messages: 38324,
        events: 114448,
        commit_len: 69190,
        avg_ms: 1.299662545,
        busy_ns: 0,
        tc_total: 0,
        tc_primary: 0,
        frontiers: &[
            (6922, "27a80649"),
            (6919, "039b1b5e"),
            (6919, "039b1b5e"),
            (6919, "039b1b5e"),
        ],
    },
    Pin {
        protocol: ProtocolId::PbftEa,
        completed: 6830,
        messages: 12502,
        events: 13244,
        commit_len: 7380,
        avg_ms: 15.720254138,
        busy_ns: 0,
        tc_total: 4531,
        tc_primary: 2215,
        frontiers: &[(738, "0ce13bce"), (738, "0ce13bce"), (738, "0ce13bce")],
    },
    Pin {
        protocol: ProtocolId::MinBft,
        completed: 8280,
        messages: 9083,
        events: 9976,
        commit_len: 8910,
        avg_ms: 12.955922797,
        busy_ns: 0,
        tc_total: 3194,
        tc_primary: 1784,
        frontiers: &[(891, "2ea0a614"), (891, "2ea0a614"), (891, "2ea0a614")],
    },
    Pin {
        protocol: ProtocolId::MinZz,
        completed: 31450,
        messages: 13039,
        events: 53097,
        commit_len: 34350,
        avg_ms: 3.114500569,
        busy_ns: 0,
        tc_total: 10068,
        tc_primary: 3438,
        frontiers: &[(3437, "3ab12691"), (3435, "e281a729"), (3435, "e281a729")],
    },
    Pin {
        protocol: ProtocolId::OpbftEa,
        completed: 42130,
        messages: 75815,
        events: 80276,
        commit_len: 44390,
        avg_ms: 2.200031699,
        busy_ns: 0,
        tc_total: 27359,
        tc_primary: 13324,
        frontiers: &[(4439, "a01c04ae"), (4439, "a01c04ae"), (4439, "a01c04ae")],
    },
    Pin {
        protocol: ProtocolId::CheapBft,
        completed: 8280,
        messages: 7526,
        events: 8419,
        commit_len: 8910,
        avg_ms: 12.955922800,
        busy_ns: 0,
        tc_total: 2675,
        tc_primary: 1784,
        frontiers: &[(891, "2ea0a614"), (891, "2ea0a614"), (891, "2ea0a614")],
    },
    Pin {
        protocol: ProtocolId::FlexiBft,
        completed: 83390,
        messages: 157419,
        events: 166162,
        commit_len: 87610,
        avg_ms: 0.865030097,
        busy_ns: 0,
        tc_total: 8773,
        tc_primary: 8773,
        frontiers: &[
            (8761, "96029c08"),
            (8761, "96029c08"),
            (8761, "96029c08"),
            (8761, "96029c08"),
        ],
    },
    Pin {
        protocol: ProtocolId::FlexiZz,
        completed: 102630,
        messages: 52752,
        events: 63534,
        commit_len: 107890,
        avg_ms: 0.609785769,
        busy_ns: 0,
        tc_total: 10792,
        tc_primary: 10792,
        frontiers: &[
            (10790, "1ae3e9d0"),
            (10789, "f215c9dd"),
            (10789, "f215c9dd"),
            (10789, "f215c9dd"),
        ],
    },
    Pin {
        protocol: ProtocolId::OFlexiBft,
        completed: 9270,
        messages: 17883,
        events: 18880,
        commit_len: 9950,
        avg_ms: 11.549362298,
        busy_ns: 0,
        tc_total: 996,
        tc_primary: 996,
        frontiers: &[
            (995, "0701c084"),
            (995, "0701c084"),
            (995, "0701c084"),
            (995, "0701c084"),
        ],
    },
    Pin {
        protocol: ProtocolId::OFlexiZz,
        completed: 52220,
        messages: 26931,
        events: 32439,
        commit_len: 55090,
        avg_ms: 1.676518226,
        busy_ns: 0,
        tc_total: 5513,
        tc_primary: 5513,
        frontiers: &[
            (5512, "50143f67"),
            (5509, "a90cd20c"),
            (5509, "a90cd20c"),
            (5509, "a90cd20c"),
        ],
    },
];
