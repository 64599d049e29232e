//! Figure 6(vi)/(vii): wide-area replication over 1–6 regions, plus the
//! bandwidth experiments the wire-size model enables: the same six-region
//! topology swept over per-link WAN bandwidth, an offered-load sweep at
//! fixed bandwidth showing throughput saturating as the leader's NIC queue
//! builds (sender-side contention), a vote-implosion sweep showing the
//! leader's *ingress* lane pinning throughput as n grows (receiver-side
//! contention), and an MTU chunk-size sweep under mixed elephant/mouse
//! traffic (head-of-line blocking vs chunked pipelining). None of these
//! effects exist under an infinite-capacity pipe model.
//!
//! `FLEXITRUST_BENCH_SCALE=smoke` shrinks every sweep to a representative
//! handful of points (the CI smoke configuration). The chunking sweep
//! always runs the atomic-vs-chunked pair and asserts the chunked run's
//! p99 is no worse — the CI regression gate for the pipelining model.

#![expect(clippy::print_stdout, reason = "a bench prints its figure")]

use flexitrust::prelude::*;
use flexitrust_bench::{
    bench_scale, eval_spec, mixed_elephant_rx_spec, mixed_elephant_spec, print_table, run,
    BenchScale,
};

fn wan_spec(protocol: ProtocolId, regions: usize, clients: usize) -> ScenarioSpec {
    let mut spec = eval_spec(protocol, 2);
    spec.regions = regions;
    // WAN latencies need a longer window to reach steady state.
    spec.duration_us = 1_200_000;
    spec.warmup_us = 400_000;
    spec.clients = clients;
    spec
}

fn main() {
    let smoke = bench_scale() == BenchScale::Smoke;

    let protocols: &[ProtocolId] = if smoke {
        &[ProtocolId::FlexiZz]
    } else {
        &[ProtocolId::MinBft, ProtocolId::Pbft, ProtocolId::FlexiZz]
    };
    let region_sweep: Vec<usize> = if smoke { vec![1, 6] } else { (1..=6).collect() };
    let mut rows = Vec::new();
    for &protocol in protocols {
        for &regions in &region_sweep {
            let report = run(wan_spec(protocol, regions, 4_000));
            rows.push(format!(
                "{:<11} regions={} tput={:>10.0} txn/s   lat={:>7.2} ms",
                protocol.name(),
                regions,
                report.throughput_tps,
                report.avg_latency_ms,
            ));
        }
    }
    print_table(
        "Figure 6(vi)/(vii): wide-area replication, regions added in paper order (f = 2)",
        "Protocol    regions     throughput          latency",
        &rows,
    );

    // Bandwidth sweep: six regions, shrinking WAN links. Unlimited is the
    // seed's pure-latency model; the constrained rows add size/bandwidth
    // transmission time — and now sender-NIC queueing — to every
    // inter-region delivery.
    let bw_protocols: &[ProtocolId] = if smoke {
        &[ProtocolId::FlexiZz]
    } else {
        &[ProtocolId::Pbft, ProtocolId::FlexiZz]
    };
    let bw_points: &[(&str, BandwidthConfig)] = if smoke {
        &[
            ("unlimited", BandwidthConfig::unlimited()),
            ("20 Mbps", BandwidthConfig::wan_constrained(20)),
        ]
    } else {
        &[
            ("unlimited", BandwidthConfig::unlimited()),
            ("100 Mbps", BandwidthConfig::wan_constrained(100)),
            ("20 Mbps", BandwidthConfig::wan_constrained(20)),
            ("5 Mbps", BandwidthConfig::wan_constrained(5)),
        ]
    };
    let mut bw_rows = Vec::new();
    for &protocol in bw_protocols {
        for (label, bandwidth) in bw_points {
            let mut spec = wan_spec(protocol, 6, 2_000);
            spec.bandwidth = *bandwidth;
            let report = run(spec);
            bw_rows.push(format!(
                "{:<11} wan={:<9} tput={:>10.0} txn/s   lat={:>7.2} ms   queue={:>8.2} ms",
                protocol.name(),
                label,
                report.throughput_tps,
                report.avg_latency_ms,
                report.net_queue_delay_ns as f64 / 1e6,
            ));
        }
    }
    print_table(
        "Figure 6(vi) extension: six regions under per-link WAN bandwidth limits (f = 2)",
        "Protocol    bandwidth      throughput          latency        total queueing",
        &bw_rows,
    );

    // Saturation sweep: fixed (thin) WAN links, growing offered load. With
    // links as serialising FIFO queues, every broadcast copy the leader
    // emits occupies its NIC for a full wire time, so throughput flattens
    // against the NIC's capacity while queueing delay — and with it client
    // latency — keeps climbing: the saturation knee of a leader-based
    // protocol at geo-scale.
    let load_sweep: &[usize] = if smoke {
        &[250, 2_000]
    } else {
        &[125, 250, 500, 1_000, 2_000, 4_000]
    };
    let mut sat_rows = Vec::new();
    for &clients in load_sweep {
        let mut spec = wan_spec(ProtocolId::FlexiZz, 6, clients);
        spec.bandwidth = BandwidthConfig::wan_constrained(20);
        let report = run(spec);
        let leader_util = report.max_link_utilization();
        sat_rows.push(format!(
            "clients={:<6} tput={:>10.0} txn/s   lat={:>8.2} ms   leader NIC util={:>5.2}   queue={:>9.2} ms",
            clients,
            report.throughput_tps,
            report.avg_latency_ms,
            leader_util,
            report.net_queue_delay_ns as f64 / 1e6,
        ));
    }
    print_table(
        "Figure 6(vi) extension: Flexi-ZZ saturation under 20 Mbps WAN links (6 regions, f = 2)",
        "Load         throughput            latency       busiest link           queueing",
        &sat_rows,
    );

    // Vote-implosion sweep: growing n, constrained replica *ingress*, and
    // small batches so per-transaction vote bytes — which scale with n,
    // unlike the batch broadcast or the client uploads — dominate every
    // replica's ingest lanes. With a thin ingest pipe the run is
    // receive-bound: throughput falls as n grows while the free-ingest run
    // holds the closed-loop rate — receiver-side contention that a
    // sender-NIC-only model misses entirely.
    let implosion_fs: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut imp_rows = Vec::new();
    for &f in implosion_fs {
        let implosion_spec = |ingress: Option<u64>| {
            let mut spec = wan_spec(ProtocolId::FlexiBft, 3, 400);
            spec.f = f;
            spec.batch_size = 10;
            let mut bw = BandwidthConfig::wan_constrained(100);
            bw.ingress_mbps = ingress;
            spec.bandwidth = bw;
            spec
        };
        let free = run(implosion_spec(None));
        let report = run(implosion_spec(Some(5)));
        imp_rows.push(format!(
            "f={:<2} n={:<3} tput={:>9.0} / {:>9.0} txn/s   lat={:>8.2} ms   ingest util={:>5.2}",
            f,
            report.n,
            free.throughput_tps,
            report.throughput_tps,
            report.avg_latency_ms,
            report.max_ingress_utilization(),
        ));
    }
    print_table(
        "Vote implosion: Flexi-BFT, free vs 5 Mbps replica ingest (3 regions, batch 10)",
        "Scale        throughput rx=inf / rx=5M    latency (rx=5M)   busiest ingress lane",
        &imp_rows,
    );

    // Chunk-size sweep under mixed elephant/mouse traffic: occasional large
    // range-scan replies share each replica's client lane with a stream of
    // small replies. Atomic reservations head-of-line block the small
    // replies behind every elephant; MTU chunks let them slip through. The
    // atomic-vs-chunked pair is asserted (chunked p99 may not regress) —
    // this runs in every scale, including the CI smoke configuration.
    let chunk_points: &[(&str, Option<usize>)] = if smoke {
        &[("atomic", None), ("1500 B", Some(1_500))]
    } else {
        &[
            ("atomic", None),
            ("64 kB", Some(64 * 1024)),
            ("16 kB", Some(16 * 1024)),
            ("4 kB", Some(4 * 1024)),
            ("1500 B", Some(1_500)),
        ]
    };
    let mut chunk_rows = Vec::new();
    let mut atomic_p99 = None;
    let mut mtu_p99 = None;
    for (label, chunk) in chunk_points {
        let mut spec = mixed_elephant_spec(eval_spec(ProtocolId::FlexiBft, 2));
        spec.bandwidth.chunk_bytes = *chunk;
        let report = run(spec);
        match chunk {
            None => atomic_p99 = Some(report.p99_latency_ms),
            Some(1_500) => mtu_p99 = Some(report.p99_latency_ms),
            _ => {}
        }
        chunk_rows.push(format!(
            "chunk={:<8} tput={:>10.0} txn/s   lat(avg/p99)={:>7.2}/{:>8.2} ms   queue={:>8.2} ms",
            label,
            report.throughput_tps,
            report.avg_latency_ms,
            report.p99_latency_ms,
            report.net_queue_delay_ns as f64 / 1e6,
        ));
    }
    print_table(
        "MTU chunking under mixed elephant/mouse traffic (Flexi-BFT, 50 Mbps client lanes)",
        "Chunk          throughput             latency                    queueing",
        &chunk_rows,
    );
    let (atomic_p99, mtu_p99) = (
        atomic_p99.expect("atomic point always runs"),
        mtu_p99.expect("1500 B point always runs"),
    );
    assert!(
        mtu_p99 <= atomic_p99,
        "chunked p99 regressed: {mtu_p99:.2} ms > atomic {atomic_p99:.2} ms"
    );
    println!(
        "chunking gate: p99 {atomic_p99:.2} ms (atomic) -> {mtu_p99:.2} ms (1500 B chunks) — ok"
    );

    // Receive-side chunking gate: the same elephant/mouse shape moved onto
    // the replicas' *ingest* lanes (every link unlimited except
    // `ingress_mbps`; ~200 kB PrePrepares are the elephants, votes the
    // mice). With atomic rx reservations a vote arriving mid-ingest waits
    // for the elephant's last byte; chunked rx must deliver a p99 that is
    // no worse. Asserted in every scale, including the CI smoke run.
    let mut rx_rows = Vec::new();
    let mut rx_pair = (None, None);
    for (label, chunk) in [("atomic", None), ("1500 B", Some(1_500usize))] {
        let mut spec = mixed_elephant_rx_spec(ScenarioSpec::quick_test(ProtocolId::FlexiBft));
        spec.bandwidth.chunk_bytes = chunk;
        let report = run(spec);
        match chunk {
            None => rx_pair.0 = Some(report.p99_latency_ms),
            Some(_) => rx_pair.1 = Some(report.p99_latency_ms),
        }
        rx_rows.push(format!(
            "rx chunk={:<8} tput={:>10.0} txn/s   lat(avg/p99)={:>6.2}/{:>7.2} ms   ingest util={:>5.2}",
            label,
            report.throughput_tps,
            report.avg_latency_ms,
            report.p99_latency_ms,
            report.max_ingress_utilization(),
        ));
    }
    print_table(
        "Chunked ingress under elephant PrePrepares (Flexi-BFT, 400 Mbps replica ingest)",
        "Chunk             throughput            latency                 busiest ingress lane",
        &rx_rows,
    );
    let (atomic_rx_p99, mtu_rx_p99) = (
        rx_pair.0.expect("atomic rx point always runs"),
        rx_pair.1.expect("1500 B rx point always runs"),
    );
    assert!(
        mtu_rx_p99 <= atomic_rx_p99,
        "chunked rx p99 regressed: {mtu_rx_p99:.2} ms > atomic {atomic_rx_p99:.2} ms"
    );
    println!(
        "rx chunking gate: p99 {atomic_rx_p99:.2} ms (atomic rx) -> {mtu_rx_p99:.2} ms (1500 B chunks) — ok"
    );
}
