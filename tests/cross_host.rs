//! Cross-host equivalence: the discrete-event simulator, the threaded
//! channel cluster and the loopback-TCP cluster drive the same engines
//! through the same shared host layer (`protocol::host`), so the same
//! workload must commit the same transactions at the same sequence numbers
//! in all three environments.
//!
//! This pins the dispatch refactor — and the wire codec — by construction:
//! a regression in any host's Action translation (dropped broadcasts,
//! wrong batching order, broken timer bookkeeping on the commit path) or
//! in the TCP transport's encode/decode path shows up as a diverging
//! commit log.

use flexitrust::prelude::*;
use flexitrust::protocol::host::CommittedTxn;
use flexitrust::runtime::{Network, ThreadedCluster};
use std::time::{Duration, Instant};

const F: usize = 1;
const BATCH: usize = 10;
/// One request per logical client, a whole number of batches, so every host
/// sees the identical arrival order client 0..CLIENTS-1 with request id 1.
const CLIENTS: usize = 40;
const SEQS: u64 = (CLIENTS / BATCH) as u64;

/// Commit log of the simulator, restricted to the sequence numbers that hold
/// the initial (request id 1) submissions; the closed-loop clients keep
/// resubmitting, so later sequence numbers hold later request ids.
fn simulator_commits(protocol: ProtocolId) -> Vec<CommittedTxn> {
    let mut spec = ScenarioSpec::quick_test(protocol);
    spec.f = F;
    spec.batch_size = BATCH;
    spec.clients = CLIENTS;
    let report = Simulation::new(spec).run();
    report
        .commit_log
        .iter()
        .filter(|c| c.seq.0 <= SEQS)
        .copied()
        .collect()
}

/// Commit log of a threaded cluster, on either network, for `clients`
/// one-request clients submitted in client order, and replica 2's final
/// execution frontier. Over sockets every message round-trips through the
/// canonical wire codec and a real socket. The workload completes on the
/// client quorum, so a crashed replica may still be catching up: the
/// frontier is read once it reaches `rejoin_at`, or after 30 s.
fn threaded_commits<N: Network>(
    host: &str,
    cluster: ThreadedCluster<N>,
    clients: usize,
    rejoin_at: u64,
) -> (Vec<CommittedTxn>, u64) {
    let protocol = cluster.config().protocol;
    let summary = cluster.run_workload(clients, clients, Duration::from_secs(120));
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut frontier = cluster.replica_frontiers()[2];
    while frontier < rejoin_at && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        frontier = cluster.replica_frontiers()[2];
    }
    cluster.shutdown();
    assert_eq!(
        summary.completed_txns, clients as u64,
        "{protocol}: the {host} cluster did not commit the full workload"
    );
    (summary.commit_log, frontier)
}

fn assert_same_commit_sequence(protocol: ProtocolId) {
    let sim = simulator_commits(protocol);
    let (cluster, _) = threaded_commits("channel", Cluster::start(protocol, F, BATCH), CLIENTS, 0);
    let tcp = TcpCluster::start(protocol, F, BATCH).expect("tcp cluster starts");
    let (tcp, _) = threaded_commits("TCP", tcp, CLIENTS, 0);
    assert_eq!(
        sim.len(),
        CLIENTS,
        "{protocol}: simulator committed {} of the {CLIENTS} initial requests in seqs 1..={SEQS}",
        sim.len()
    );
    assert_eq!(
        sim, cluster,
        "{protocol}: simulator and threaded cluster commit logs diverge"
    );
    assert_eq!(
        sim, tcp,
        "{protocol}: simulator and TCP cluster commit logs diverge"
    );
    // Spot-check the shape all hosts must agree on: every initial request
    // commits exactly once, within the expected sequence window.
    for entry in &sim {
        assert_eq!(entry.request, RequestId(1));
        assert!(entry.seq.0 >= 1 && entry.seq.0 <= SEQS);
    }
}

#[test]
fn flexi_bft_commits_identically_in_all_three_hosts() {
    assert_same_commit_sequence(ProtocolId::FlexiBft);
}

#[test]
fn pbft_commits_identically_in_all_three_hosts() {
    assert_same_commit_sequence(ProtocolId::Pbft);
}

/// Flexi-ZZ replies speculatively after a single phase, so the client-side
/// quorum logic is load-bearing: every host's clients count votes per
/// (seq, result digest) with the one `ClientLibrary`, and the hosts agree on
/// when a request completes only while they feed it the same replies.
#[test]
fn flexi_zz_speculative_replies_commit_identically_in_all_three_hosts() {
    assert_same_commit_sequence(ProtocolId::FlexiZz);
}

/// Workload shape for the crash-recovery pin: enough one-request clients
/// that the crash window (crash once replica 2 executes seq 40, rejoin
/// once the rest reach seq 120) sits strictly inside the run.
const CHAOS_CLIENTS: usize = 1600;
const CHAOS_SEQS: u64 = (CHAOS_CLIENTS / BATCH) as u64;
const CRASH_AT: u64 = 40;
const RECOVER_AT: u64 = 120;
/// The one window value all three hosts are handed.
const CRASH_WINDOW: CrashWindow = CrashWindow {
    replica: ReplicaId(2),
    crash_at_seq: CRASH_AT,
    recover_at_seq: RECOVER_AT,
};
/// Shortened checkpoint interval so recovery has a stable checkpoint to
/// transfer well before the workload drains.
const CHAOS_CHECKPOINT: u64 = 20;

/// Simulator commit log (restricted to the initial requests) plus replica
/// 2's final execution frontier, under the crash window.
fn simulator_commits_with_crash(protocol: ProtocolId) -> (Vec<CommittedTxn>, u64) {
    let mut spec = ScenarioSpec::quick_test(protocol);
    spec.f = F;
    spec.batch_size = BATCH;
    spec.clients = CHAOS_CLIENTS;
    spec.checkpoint_interval = Some(CHAOS_CHECKPOINT);
    spec.chaos = ChaosPlan::none().with_crash_windows(vec![CRASH_WINDOW]);
    let report = Simulation::new(spec).run();
    report
        .check_chaos_invariants()
        .expect("crash-recovery run must hold safety and restore liveness");
    let frontier = report.replica_frontiers[2].0;
    let commits = report
        .commit_log
        .iter()
        .filter(|c| c.seq.0 <= CHAOS_SEQS)
        .copied()
        .collect();
    (commits, frontier)
}

/// Crash-recovery pin: with replica 2 down between seq 40 and seq 120 the
/// remaining three replicas still hold exactly the commit quorum, so the
/// commit sequence must be identical to the fault-free one — and identical
/// in the simulator and both threaded clusters, the window crossing a
/// socket as it crosses a channel. Replica 2 must rejoin via checkpoint
/// state transfer and end past the recovery point in all three hosts.
#[test]
fn crashed_replica_rejoins_and_hosts_agree_on_the_commit_sequence() {
    let protocol = ProtocolId::FlexiBft;
    let (sim, sim_frontier) = simulator_commits_with_crash(protocol);
    assert_eq!(
        sim.len(),
        CHAOS_CLIENTS,
        "simulator committed {} of the {CHAOS_CLIENTS} initial requests in seqs 1..={CHAOS_SEQS}",
        sim.len()
    );
    assert!(
        sim_frontier >= RECOVER_AT,
        "simulated replica 2 stopped at seq {sim_frontier}, before the seq-{RECOVER_AT} rejoin point"
    );
    let (checkpoint, window) = (Some(CHAOS_CHECKPOINT), Some(CRASH_WINDOW));
    let channel = Cluster::start_with_chaos(protocol, F, BATCH, checkpoint, window);
    let channel = threaded_commits("channel", channel, CHAOS_CLIENTS, RECOVER_AT);
    let tcp = TcpCluster::start_with_chaos(protocol, F, BATCH, checkpoint, window)
        .expect("tcp cluster starts");
    let tcp = threaded_commits("TCP", tcp, CHAOS_CLIENTS, RECOVER_AT);
    for (host, (commits, frontier)) in [("channel", channel), ("TCP", tcp)] {
        assert_eq!(
            sim, commits,
            "simulator and {host} cluster commit logs diverge under the crash window"
        );
        assert!(
            frontier >= RECOVER_AT,
            "{host} cluster replica 2 stopped at seq {frontier}, before the seq-{RECOVER_AT} rejoin point"
        );
    }
}
