//! The serialising FIFO link model: property tests over the two-ended
//! queues (egress chunking, ingress fan-in), the broadcast fan-out
//! acceptance criterion, and the regression pins that `chunk_bytes: None`
//! plus unlimited ingress reproduce the sender-side-only (PR 2) schedule
//! bit-exactly — both on the pure-latency path and on bandwidth-constrained
//! links.

use flexitrust::prelude::*;
use proptest::prelude::*;

const NIC: Nic = Nic::Replica(ReplicaId(0));
const TX: Direction = Direction::Egress;
const RX: Direction = Direction::Ingress;

fn tt(mbps: u64, bytes: usize) -> u64 {
    BandwidthConfig::transmit_time_ns(Some(mbps), bytes)
}

// ---------------------------------------------------------------------------
// Queue-level properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Per-link delivery is FIFO: however ready times and transfer sizes
    /// interleave, completion times come out in reservation order, each
    /// transfer starts no earlier than its ready time, and the wire is
    /// never occupied by two transfers at once.
    #[test]
    fn link_transfers_complete_in_fifo_order(
        ready_deltas in proptest::collection::vec(0u64..5_000, 1..60),
        transmits in proptest::collection::vec(1u64..2_000, 1..60),
    ) {
        let mut queue = LinkQueues::new();
        let mut ready = 0u64;
        let mut last_done = 0u64;
        for (i, delta) in ready_deltas.iter().enumerate() {
            // Ready times move forward like a simulation clock would.
            ready += delta;
            let transmit = transmits[i % transmits.len()];
            let done = queue.reserve(NIC, LinkClass::Wan, TX, ready, transmit);
            // FIFO + serialisation: the wire carries one transfer at a
            // time, so a reservation completes a full transmit time after
            // the previous completion (or later), and never before its own
            // ready time plus its own wire time.
            prop_assert!(done >= last_done + transmit);
            prop_assert!(done >= ready + transmit);
            last_done = done;
        }
        // Occupancy accounting matches what was pushed through the wire.
        let usage = queue.usage();
        prop_assert_eq!(usage.len(), 1);
        prop_assert_eq!(usage[0].messages, ready_deltas.len() as u64);
    }

    /// Delivery time is monotone in queue depth: enqueueing extra earlier
    /// traffic can only delay (never speed up) a subsequent transfer.
    #[test]
    fn delivery_time_is_monotone_in_queue_depth(
        depth in 1usize..40,
        transmit in 1u64..10_000,
    ) {
        let probe_ready = 1_000u64;
        let mut shallow = LinkQueues::new();
        let mut deep = LinkQueues::new();
        for k in 0..depth {
            // The deep queue carries `depth` earlier copies; the shallow one
            // only the first.
            if k == 0 {
                shallow.reserve(NIC, LinkClass::Wan, TX, 0, transmit);
            }
            deep.reserve(NIC, LinkClass::Wan, TX, 0, transmit);
        }
        let shallow_done = shallow.reserve(NIC, LinkClass::Wan, TX, probe_ready, transmit);
        let deep_done = deep.reserve(NIC, LinkClass::Wan, TX, probe_ready, transmit);
        prop_assert!(deep_done >= shallow_done);
        // With the k-th copy behind k − 1 earlier ones, the backlog is exact.
        prop_assert_eq!(
            deep_done,
            (depth as u64 * transmit).max(probe_ready) + transmit
        );
    }

    /// Chunking is pure pipelining, never overhead: with no competing
    /// traffic arriving mid-transfer, an MTU-chunked transfer — each chunk
    /// reserved when the previous one clears the wire, chunk times cut as
    /// cumulative differences — completes at exactly the instant the atomic
    /// reservation would, for any chunk size, bandwidth and pre-existing
    /// backlog. (Per-chunk round-up must not inflate the total.)
    #[test]
    fn chunked_transfer_without_competition_matches_atomic(
        bytes in 1usize..200_000,
        chunk in 1usize..50_000,
        mbps in 1u64..10_000,
        backlog in 0u64..1_000_000,
        ready in 0u64..1_000_000,
    ) {
        let mut atomic = LinkQueues::new();
        let mut chunked = LinkQueues::new();
        if backlog > 0 {
            atomic.reserve(NIC, LinkClass::Wan, TX, 0, backlog);
            chunked.reserve(NIC, LinkClass::Wan, TX, 0, backlog);
        }
        let atomic_done = atomic.reserve(NIC, LinkClass::Wan, TX, ready, tt(mbps, bytes));
        let mut offset = 0usize;
        let mut at = ready;
        while offset < bytes {
            let end = (offset + chunk).min(bytes);
            let chunk_ns = tt(mbps, end) - tt(mbps, offset);
            at = if offset == 0 {
                chunked.reserve(NIC, LinkClass::Wan, TX, at, chunk_ns)
            } else {
                chunked.reserve_continuation(NIC, LinkClass::Wan, TX, at, chunk_ns)
            };
            offset = end;
        }
        prop_assert_eq!(at, atomic_done);
        prop_assert_eq!(chunked.total_busy_ns(), atomic.total_busy_ns());
        // `messages` counts transfers, not chunks: both models agree.
        let count = |q: &LinkQueues| q.usage().iter().map(|u| u.messages).sum::<u64>();
        prop_assert_eq!(count(&chunked), count(&atomic));
    }

    /// The point of chunking: a small control message departing while a
    /// large transfer occupies the lane is delivered **no later** than
    /// under atomic reservation — it slips between chunks instead of
    /// waiting for the last byte. (Ties in event order are resolved in the
    /// large transfer's favour, the worst case for the small message.)
    #[test]
    fn small_message_is_never_later_under_chunking(
        big_bytes in 10_000usize..500_000,
        chunk in 500usize..20_000,
        mbps in 1u64..1_000,
        small_bytes in 1usize..1_400,
        departure in 0u64..100_000_000,
    ) {
        let small_ns = tt(mbps, small_bytes);

        // Atomic: the small message queues behind the whole transfer.
        let mut q = LinkQueues::new();
        q.reserve(NIC, LinkClass::Wan, TX, 0, tt(mbps, big_bytes));
        let atomic_done = q.reserve(NIC, LinkClass::Wan, TX, departure, small_ns);

        // Chunked: replay the event order of the simulator — chunk k + 1 is
        // reserved when chunk k clears the wire; the small message's
        // reservation fires at its departure time.
        let mut q = LinkQueues::new();
        let mut offset = 0usize;
        let mut at = 0u64;
        let mut small_done = None;
        while offset < big_bytes {
            if small_done.is_none() && departure < at {
                small_done = Some(q.reserve(NIC, LinkClass::Wan, TX, departure, small_ns));
            }
            let end = (offset + chunk).min(big_bytes);
            let chunk_ns = tt(mbps, end) - tt(mbps, offset);
            at = q.reserve(NIC, LinkClass::Wan, TX, at, chunk_ns);
            offset = end;
        }
        let small_done = small_done
            .unwrap_or_else(|| q.reserve(NIC, LinkClass::Wan, TX, departure, small_ns));
        prop_assert!(
            small_done <= atomic_done,
            "chunked {small_done} > atomic {atomic_done}"
        );
    }

    /// Chunked ingest is pure pipelining, never overhead: with no
    /// competing arrivals, a chunked rx reservation — first chunk
    /// backdated by the whole ingest wire time exactly like the atomic
    /// one, continuations reserved as each chunk clears, spans cut as
    /// cumulative differences — completes at exactly the instant the
    /// atomic reservation would, for any chunk size, bandwidth and
    /// pre-existing ingest backlog.
    #[test]
    fn chunked_ingest_without_competition_matches_atomic(
        bytes in 1usize..200_000,
        chunk in 1usize..50_000,
        mbps in 1u64..10_000,
        backlog in 0u64..1_000_000,
        arrival in 0u64..1_000_000,
    ) {
        let rx_ns = tt(mbps, bytes);
        // Stay clear of the clock-0 backdating saturation boundary, which
        // is a start-of-run artifact rather than queue behaviour.
        let arrival = arrival.max(rx_ns);
        let mut atomic = LinkQueues::new();
        let mut chunked = LinkQueues::new();
        if backlog > 0 {
            atomic.reserve(NIC, LinkClass::Wan, RX, 0, backlog);
            chunked.reserve(NIC, LinkClass::Wan, RX, 0, backlog);
        }
        let atomic_done = atomic.reserve(NIC, LinkClass::Wan, RX, arrival - rx_ns, rx_ns);
        // Replay the runner's event order: the first chunk is backdated,
        // each continuation fires when its predecessor clears the lane.
        let mut offset = 0usize;
        let mut at = arrival - rx_ns;
        while offset < bytes {
            let end = (offset + chunk).min(bytes);
            let chunk_ns = tt(mbps, end) - tt(mbps, offset);
            at = if offset == 0 {
                chunked.reserve(NIC, LinkClass::Wan, RX, at, chunk_ns)
            } else {
                chunked.reserve_continuation(NIC, LinkClass::Wan, RX, at, chunk_ns)
            };
            offset = end;
        }
        prop_assert_eq!(at, atomic_done);
        prop_assert_eq!(chunked.total_busy_ns(), atomic.total_busy_ns());
        let count = |q: &LinkQueues| q.usage().iter().map(|u| u.messages).sum::<u64>();
        prop_assert_eq!(count(&chunked), count(&atomic));
    }

    /// The receive-side head-of-line fix: a small message arriving while an
    /// elephant occupies the ingest lane is delivered **no later** than
    /// under atomic rx reservation — it slips between ingest chunks
    /// instead of waiting for the elephant's last byte. (Ties in event
    /// order are resolved in the elephant's favour, the worst case for the
    /// small message.)
    #[test]
    fn small_ingest_is_never_later_under_chunking(
        big_bytes in 10_000usize..500_000,
        chunk in 500usize..20_000,
        mbps in 1u64..1_000,
        small_bytes in 1usize..1_400,
        arrival_delta in 0u64..100_000_000,
    ) {
        let big_rx = tt(mbps, big_bytes);
        let small_rx = tt(mbps, small_bytes);
        let big_arrival = big_rx; // earliest backdate-safe arrival
        let small_arrival = big_arrival.max(small_rx) + arrival_delta;

        // Atomic: the small message queues behind the whole elephant.
        let mut q = LinkQueues::new();
        q.reserve(NIC, LinkClass::Wan, RX, big_arrival - big_rx, big_rx);
        let atomic_done = q
            .reserve(NIC, LinkClass::Wan, RX, small_arrival - small_rx, small_rx)
            .max(small_arrival);

        // Chunked: replay the simulator's event order — ingest chunk k + 1
        // is reserved when chunk k clears; the small arrival fires at its
        // own event time.
        let mut q = LinkQueues::new();
        let mut offset = 0usize;
        let mut at = big_arrival - big_rx;
        let mut small_done = None;
        while offset < big_bytes {
            if small_done.is_none() && small_arrival < at {
                small_done = Some(q.reserve(
                    NIC,
                    LinkClass::Wan,
                    RX,
                    small_arrival - small_rx,
                    small_rx,
                ));
            }
            let end = (offset + chunk).min(big_bytes);
            let chunk_ns = tt(mbps, end) - tt(mbps, offset);
            at = if offset == 0 {
                q.reserve(NIC, LinkClass::Wan, RX, at, chunk_ns)
            } else {
                q.reserve_continuation(NIC, LinkClass::Wan, RX, at, chunk_ns)
            };
            offset = end;
        }
        let small_done = small_done
            .unwrap_or_else(|| {
                q.reserve(NIC, LinkClass::Wan, RX, small_arrival - small_rx, small_rx)
            })
            .max(small_arrival);
        prop_assert!(
            small_done <= atomic_done,
            "chunked rx {small_done} > atomic rx {atomic_done}"
        );
    }

    /// Receive-side fan-in: k simultaneous arrivals on one ingress lane
    /// serialise exactly — the first ingests for free (its bits streamed in
    /// while crossing the wire), the k-th completes k − 1 ingest times
    /// later — so delivery of the last vote is monotone in fan-in.
    #[test]
    fn ingress_delivery_is_monotone_in_fan_in(
        fan_in in 1usize..50,
        rx in 1u64..10_000,
        arrival in 10_000u64..1_000_000,
    ) {
        let arrival = arrival.max(rx);
        let last_delivery = |k: usize| {
            let mut q = LinkQueues::new();
            let mut last = 0u64;
            for _ in 0..k {
                last = q.reserve(NIC, LinkClass::Wan, RX, arrival - rx, rx);
            }
            last
        };
        let with_k = last_delivery(fan_in);
        prop_assert_eq!(with_k, arrival + (fan_in as u64 - 1) * rx);
        prop_assert!(last_delivery(fan_in + 1) >= with_k);
    }
}

// ---------------------------------------------------------------------------
// Broadcast fan-out: the acceptance criterion, against the real WAN model.
// ---------------------------------------------------------------------------

/// With finite leader-NIC bandwidth, the k-th copy of a broadcast queues
/// behind the first k − 1: total transmission time scales linearly with
/// fan-out instead of being paid once, concurrently, per destination.
#[test]
fn broadcast_transmission_time_scales_with_fan_out() {
    let n = 25;
    let net = NetworkModel::wan(n, 6).with_bandwidth(BandwidthConfig::wan_constrained(100));
    let mut queue = LinkQueues::new();
    let leader = ReplicaId(0);
    let bytes = 100_000; // a 100 kB pre-prepare
    let departure = 5_000u64;
    let mut wan_completions = Vec::new();
    for peer in 1..n {
        let to = ReplicaId(peer as u32);
        let transmit = net.replica_transmit_ns(leader, to, bytes);
        assert!(transmit > 0);
        let class = net.replica_link_class(leader, to);
        let done = queue.reserve(
            Nic::Replica(leader),
            class,
            Direction::Egress,
            departure,
            transmit,
        );
        if class == LinkClass::Wan {
            wan_completions.push(done);
        }
    }
    // Copies on the same link class leave the wire strictly one after
    // another (the fast local lane is independent and does not appear
    // here)…
    let wan_transmit = BandwidthConfig::transmit_time_ns(Some(100), bytes);
    for pair in wan_completions.windows(2) {
        assert_eq!(pair[1] - pair[0], wan_transmit);
    }
    // …so the k-th WAN copy completes a full k transmit times after
    // departure: total transmission time scales with fan-out.
    let wan_copies = wan_completions.len() as u64;
    assert!(wan_copies >= 15, "six-region layout is WAN-heavy");
    assert_eq!(
        *wan_completions.last().unwrap(),
        departure + wan_copies * wan_transmit
    );
}

/// End-to-end: a bandwidth-constrained WAN run reports link contention
/// (queueing delay, busy NICs) and pays for it in client latency, while the
/// unlimited run reports none.
#[test]
fn constrained_wan_simulation_reports_queueing_and_pays_latency() {
    let run = |bandwidth: BandwidthConfig| {
        let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
        spec.regions = 3;
        spec.bandwidth = bandwidth;
        spec.duration_us = 1_200_000;
        spec.warmup_us = 300_000;
        spec.clients = 400;
        Simulation::new(spec).run()
    };
    let unlimited = run(BandwidthConfig::unlimited());
    assert_eq!(unlimited.net_busy_ns, 0);
    assert_eq!(unlimited.net_queue_delay_ns, 0);
    assert!(unlimited.link_usage.is_empty());
    assert_eq!(unlimited.max_link_utilization(), 0.0);

    let tight = run(BandwidthConfig::wan_constrained(5));
    assert!(tight.completed_txns > 0);
    assert!(tight.net_busy_ns > 0, "constrained links transmit");
    assert!(
        tight.net_queue_delay_ns > 0,
        "broadcast copies must queue on the leader NIC"
    );
    assert!(tight.max_link_utilization() > 0.0);
    assert!(
        tight.avg_latency_ms > unlimited.avg_latency_ms,
        "queueing must cost latency: {} <= {}",
        tight.avg_latency_ms,
        unlimited.avg_latency_ms
    );
    // The busiest link belongs to a replica NIC (the broadcast-heavy
    // leader), not the client pool.
    let busiest = tight.busiest_link().unwrap();
    assert!(matches!(busiest.nic, Nic::Replica(_)));
    // Without an ingress bandwidth, receivers ingest for free: every
    // accounting row is an egress lane.
    assert!(tight
        .link_usage
        .iter()
        .all(|u| u.direction == Direction::Egress));
    assert_eq!(tight.max_ingress_utilization(), 0.0);
}

// ---------------------------------------------------------------------------
// Receiver-side contention, end to end: the vote implosion.
// ---------------------------------------------------------------------------

/// With an ingress bandwidth configured, replica ingest lanes become
/// measured, contended resources: ingress utilisation climbs with n (more
/// voters imploding on every NIC each batch), the run pays latency for it,
/// and on a thin enough ingest pipe the run is ingest-bound — throughput
/// drops below the receivers-ingest-for-free run.
#[test]
fn vote_implosion_serialises_on_the_leader_ingress_lane() {
    let run = |f: usize, ingress: Option<u64>| {
        let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
        spec.f = f;
        spec.regions = 3;
        let mut bw = BandwidthConfig::wan_constrained(100);
        bw.ingress_mbps = ingress;
        spec.bandwidth = bw;
        spec.duration_us = 1_200_000;
        spec.warmup_us = 300_000;
        spec.clients = 400;
        Simulation::new(spec).run()
    };
    // Ingress utilisation grows with the fan-in: more replicas, more votes
    // arriving at every replica per batch.
    let mut last_util = 0.0;
    let mut free_at_f4 = None;
    for f in [1usize, 2, 4] {
        let constrained = run(f, Some(10));
        assert!(constrained.completed_txns > 0, "f={f}");
        let util = constrained.max_ingress_utilization();
        assert!(util > last_util, "f={f}: ingress util {util} did not grow");
        assert!(
            constrained
                .link_usage
                .iter()
                .any(|u| u.direction == Direction::Ingress && matches!(u.nic, Nic::Replica(_))),
            "f={f}: no replica ingress rows"
        );
        last_util = util;

        // Same topology with free ingest: no ingress rows, and the
        // ingest-paying run is never faster.
        let free = run(f, None);
        assert_eq!(free.max_ingress_utilization(), 0.0);
        assert!(
            constrained.avg_latency_ms >= free.avg_latency_ms,
            "f={f}: paying for ingest cannot reduce latency"
        );
        if f == 4 {
            free_at_f4 = Some(free);
        }
    }
    // On a 5 Mbps ingest pipe the implosion saturates replica ingress and
    // pins throughput well below the receivers-ingest-for-free run (the
    // f = 4 free run from the loop — the simulator is deterministic).
    let free = free_at_f4.expect("loop covers f = 4");
    let bound = run(4, Some(5));
    assert!(bound.max_ingress_utilization() > 0.8);
    assert!(
        bound.throughput_tps < free.throughput_tps,
        "ingest-bound {} >= free {}",
        bound.throughput_tps,
        free.throughput_tps
    );
}

/// A hand-built 0 Mbps (dead) link saturates to `u64::MAX` transmit time
/// and never delivers. Chunking must not resurrect it: cutting chunk times
/// as cumulative differences would make every chunk
/// `MAX.saturating_sub(MAX) = 0` — an infinitely *fast* dead link, the
/// exact edge case the saturation fixed in PR 2.
#[test]
fn a_dead_link_stays_dead_under_chunking() {
    let run = |chunk: Option<usize>| {
        let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
        spec.regions = 3;
        spec.bandwidth = BandwidthConfig {
            wan_mbps: Some(0),
            chunk_bytes: chunk,
            ..BandwidthConfig::unlimited()
        };
        Simulation::new(spec).run()
    };
    // Cross-region quorums are unreachable over dead WAN links, chunked
    // (64 B chunks every protocol message exceeds) or not.
    assert_eq!(run(None).completed_txns, 0);
    assert_eq!(run(Some(64)).completed_txns, 0);
}

// ---------------------------------------------------------------------------
// Chunked pipelining, end to end: elephants no longer block mice.
// ---------------------------------------------------------------------------

/// Mixed elephant/mouse traffic on a constrained lane (the shared
/// `flexitrust_bench::mixed_elephant_spec` scenario, also gated in the CI
/// bench smoke run): occasional large range-scan replies share each
/// replica's client lane with a stream of small replies. Atomic
/// reservations head-of-line block the small replies behind every
/// elephant; MTU chunking lets them slip between chunks, so tail latency
/// collapses and throughput recovers.
#[test]
fn chunking_cuts_tail_latency_under_mixed_traffic() {
    let run = |chunk: Option<usize>| {
        let mut spec =
            flexitrust_bench::mixed_elephant_spec(ScenarioSpec::quick_test(ProtocolId::FlexiBft));
        spec.bandwidth.chunk_bytes = chunk;
        Simulation::new(spec).run()
    };
    let atomic = run(None);
    let chunked = run(Some(1_500));
    assert!(atomic.completed_txns > 0 && chunked.completed_txns > 0);
    assert!(
        chunked.p99_latency_ms <= atomic.p99_latency_ms,
        "chunked p99 {} > atomic p99 {}",
        chunked.p99_latency_ms,
        atomic.p99_latency_ms
    );
    // The win is large, not marginal: elephants cost every queued mouse a
    // full transfer time without chunking.
    assert!(
        chunked.p99_latency_ms < 0.5 * atomic.p99_latency_ms,
        "chunked p99 {} vs atomic {}",
        chunked.p99_latency_ms,
        atomic.p99_latency_ms
    );
}

/// The chunked client-lane schedule, bit-exactly: the mixed elephant/mouse
/// scenario at 1 500-byte chunks is the one pin whose reply transfers and
/// request uploads cross their client lanes in several chunks, so every
/// continuation step of those two transfer kinds is under it. The values
/// are a snapshot of the simulator that gave each transfer kind its own
/// event.
#[test]
fn chunked_client_lane_transfers_keep_their_schedule_bit_exactly() {
    let mut spec =
        flexitrust_bench::mixed_elephant_spec(ScenarioSpec::quick_test(ProtocolId::FlexiBft));
    spec.bandwidth.chunk_bytes = Some(1_500);
    let report = Simulation::new(spec).run();
    assert_eq!(report.completed_txns, 7_457);
    assert_eq!(report.messages_delivered, 28_756);
    assert_eq!(report.commit_log.len(), 12_397);
    assert!(
        (report.avg_latency_ms - 24.049551208).abs() < 5e-9,
        "avg {} != pinned",
        report.avg_latency_ms
    );
    assert_eq!(report.net_busy_ns, 6_377_570_400);
    assert_eq!(report.net_queue_delay_ns, 1_106_744_162_774);
    let client_rows: Vec<(Nic, Direction, u64, u64, u64)> = report
        .link_usage
        .iter()
        .filter(|u| u.class == LinkClass::Client)
        .map(|u| (u.nic, u.direction, u.busy_ns, u.queue_delay_ns, u.messages))
        .collect();
    let replica = |id: u32, queue_ns: u64| {
        (
            Nic::Replica(ReplicaId(id)),
            Direction::Egress,
            1_517_219_040,
            queue_ns,
            12_456,
        )
    };
    assert_eq!(
        client_rows,
        [
            replica(0, 276_330_676_846),
            replica(1, 276_331_006_776),
            replica(2, 276_331_006_776),
            replica(3, 276_331_006_776),
            (
                Nic::ClientPool,
                Direction::Egress,
                308_694_240,
                1_420_465_600,
                12_266
            ),
        ]
    );
}

/// The receive-side twin of the tail-latency test (the shared
/// `flexitrust_bench::mixed_elephant_rx_spec` scenario, also gated in the
/// CI bench smoke run): with every link unlimited except replica ingest,
/// each ~200 kB PrePrepare is an elephant on the backups' ingest lanes and
/// the votes it triggers are mice on the same lanes. Atomic rx
/// reservations make a vote arriving mid-ingest wait for the elephant's
/// last byte — exactly the head-of-line blocking egress chunking was
/// supposed to remove, reintroduced on the receive side. Chunked rx lets
/// the votes slip through: p99 must not regress, and the run must not
/// starve.
#[test]
fn chunked_ingress_cuts_tail_latency_under_elephant_preprepares() {
    let run = |chunk: Option<usize>| {
        let mut spec = flexitrust_bench::mixed_elephant_rx_spec(ScenarioSpec::quick_test(
            ProtocolId::FlexiBft,
        ));
        spec.bandwidth.chunk_bytes = chunk;
        Simulation::new(spec).run()
    };
    let atomic = run(None);
    let chunked = run(Some(1_500));
    assert!(atomic.completed_txns > 0 && chunked.completed_txns > 0);
    // Both runs pay for ingest: the contended lanes are really there.
    assert!(atomic.max_ingress_utilization() > 0.5);
    assert!(chunked.max_ingress_utilization() > 0.5);
    assert!(
        chunked.p99_latency_ms <= atomic.p99_latency_ms,
        "chunked rx p99 {} > atomic rx p99 {}",
        chunked.p99_latency_ms,
        atomic.p99_latency_ms
    );
    // And the pipelining gain is real, not a tie: commits are not delayed
    // behind elephants they never needed to wait for.
    assert!(
        chunked.throughput_tps >= atomic.throughput_tps,
        "chunked rx tput {} < atomic rx tput {}",
        chunked.throughput_tps,
        atomic.throughput_tps
    );
}

// ---------------------------------------------------------------------------
// Regression pins: `chunk_bytes: None` + unlimited ingress is the PR 2
// sender-side-only schedule, bit-exactly.
// ---------------------------------------------------------------------------

/// `BandwidthConfig::unlimited()` (the `quick_test` default) must reproduce
/// the pure-latency schedule bit-exactly: identical completion counts,
/// message counts, commit logs and mean latency. The expected values are a
/// snapshot of the seed (pre-link-queue) simulator on the same
/// deterministic scenarios, re-based when `wire_size_bytes()` became the
/// canonical codec's exact encoded length (the per-byte CPU cost now
/// charges the true frame bytes, shifting schedules slightly).
#[test]
fn unlimited_bandwidth_reproduces_the_latency_only_schedule_bit_exactly() {
    struct Pin {
        protocol: ProtocolId,
        regions: usize,
        completed: u64,
        messages: u64,
        commit_len: usize,
        avg_ms: f64,
    }
    let pins = [
        Pin {
            protocol: ProtocolId::FlexiBft,
            regions: 1,
            completed: 21_900,
            messages: 52_310,
            commit_len: 26_120,
            avg_ms: 0.862938961,
        },
        Pin {
            protocol: ProtocolId::FlexiBft,
            regions: 3,
            completed: 200,
            messages: 920,
            commit_len: 400,
            avg_ms: 62.844424400,
        },
        Pin {
            protocol: ProtocolId::FlexiZz,
            regions: 1,
            completed: 27_000,
            messages: 12_946,
            commit_len: 32_230,
            avg_ms: 0.607518400,
        },
        Pin {
            protocol: ProtocolId::Pbft,
            regions: 1,
            completed: 19_310,
            messages: 83_635,
            commit_len: 23_200,
            avg_ms: 1.044994429,
        },
    ];
    for pin in pins {
        let mut spec = ScenarioSpec::quick_test(pin.protocol);
        spec.regions = pin.regions;
        let report = Simulation::new(spec).run();
        let label = format!("{} regions={}", pin.protocol, pin.regions);
        assert_eq!(report.completed_txns, pin.completed, "{label}");
        assert_eq!(report.messages_delivered, pin.messages, "{label}");
        assert_eq!(report.commit_log.len(), pin.commit_len, "{label}");
        assert!(
            (report.avg_latency_ms - pin.avg_ms).abs() < 5e-9,
            "{label}: avg {} != pinned {}",
            report.avg_latency_ms,
            pin.avg_ms
        );
        // And the queues must have stayed completely out of the way.
        assert_eq!(report.net_busy_ns, 0, "{label}");
        assert_eq!(report.net_queue_delay_ns, 0, "{label}");
    }
}

/// On *bandwidth-constrained* links, `chunk_bytes: None` plus unlimited
/// ingress must reproduce the sender-side-only atomic-reservation link
/// schedule bit-exactly: identical completions, message counts, commit
/// logs, mean latency and — byte for byte — the same wire occupancy and
/// queueing totals. The pinned values are a snapshot of that simulator on
/// the same deterministic scenarios, re-based when `wire_size_bytes()`
/// became the canonical codec's exact encoded length (links now carry the
/// true frame bytes, so occupancy totals moved with the sizes).
#[test]
fn atomic_transfers_with_free_ingest_reproduce_the_pr2_schedule_bit_exactly() {
    struct Pin {
        label: &'static str,
        spec: ScenarioSpec,
        completed: u64,
        messages: u64,
        commit_len: usize,
        avg_ms: f64,
        busy_ns: u64,
        queue_ns: u64,
    }
    let wan = |protocol: ProtocolId| {
        let mut spec = ScenarioSpec::quick_test(protocol);
        spec.regions = 3;
        spec.bandwidth = BandwidthConfig::wan_constrained(25);
        spec.duration_us = 1_200_000;
        spec.warmup_us = 300_000;
        spec.clients = 400;
        spec
    };
    let uniform = |protocol: ProtocolId| {
        let mut spec = ScenarioSpec::quick_test(protocol);
        spec.bandwidth = BandwidthConfig::uniform(50);
        spec
    };
    let pins = [
        Pin {
            label: "FlexiBft wan25",
            spec: wan(ProtocolId::FlexiBft),
            completed: 7_200,
            messages: 18_458,
            commit_len: 9_200,
            avg_ms: 62.770860101,
            busy_ns: 985_230_301,
            queue_ns: 5_795_544_287,
        },
        Pin {
            label: "Pbft wan25",
            spec: wan(ProtocolId::Pbft),
            completed: 7_120,
            messages: 31_791,
            commit_len: 8_880,
            avg_ms: 63.219711990,
            busy_ns: 1_140_925_108,
            queue_ns: 10_032_224_773,
        },
        Pin {
            label: "FlexiZz uniform50",
            spec: uniform(ProtocolId::FlexiZz),
            completed: 2_500,
            messages: 1_277,
            commit_len: 3_140,
            avg_ms: 10.609501744,
            busy_ns: 405_956_800,
            queue_ns: 10_464_940_976,
        },
    ];
    for pin in pins {
        // The PR 2 configuration in the new model's terms, stated
        // explicitly: atomic transfers, receivers ingest for free.
        assert_eq!(pin.spec.bandwidth.chunk_bytes, None);
        assert_eq!(pin.spec.bandwidth.ingress_mbps, None);
        let report = Simulation::new(pin.spec).run();
        let label = pin.label;
        assert_eq!(report.completed_txns, pin.completed, "{label}");
        assert_eq!(report.messages_delivered, pin.messages, "{label}");
        assert_eq!(report.commit_log.len(), pin.commit_len, "{label}");
        assert!(
            (report.avg_latency_ms - pin.avg_ms).abs() < 5e-9,
            "{label}: avg {} != pinned {}",
            report.avg_latency_ms,
            pin.avg_ms
        );
        assert_eq!(report.net_busy_ns, pin.busy_ns, "{label}");
        assert_eq!(report.net_queue_delay_ns, pin.queue_ns, "{label}");
        // Sender-side only: not a single ingress row may appear.
        assert!(
            report
                .link_usage
                .iter()
                .all(|u| u.direction == Direction::Egress),
            "{label}: unexpected ingress lane rows"
        );
    }
}
