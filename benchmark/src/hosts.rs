//! Real-host workloads: closed bursts through `TcpCluster` and `Cluster`.
//!
//! The real hosts expose only `run_workload`, a closed burst that cannot be
//! reused on one cluster (replies left in the reply channel carry the same
//! `(ClientId, RequestId)` and would complete the next call's requests), and
//! large bursts wedge (README, known limits). So a workload is a sequence
//! of **rounds**: a fresh `start()`, one `run_workload(burst, 64 clients,
//! 10 s timeout)`, then `shutdown()`. Only the `run_workload` call is the
//! measured window; `start()` and `shutdown()` are set-up.

use crate::measure::{median, p10, Budget, Sample, Window};
use flexitrust::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

/// Logical clients of every burst (the closed loop's width).
pub const CLIENTS: usize = 64;
/// A round that has not committed its burst by then is stalled.
pub const ROUND_TIMEOUT: Duration = Duration::from_secs(10);
/// This many stalled rounds abort the workload.
pub const MAX_STALLED_ROUNDS: u64 = 3;
/// Rounds every run measures at least, whatever `--seconds` says: a median
/// over fewer says little.
const MIN_ROUNDS: usize = 5;

/// Which real host carries the messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKind {
    /// Loopback TCP sockets, every message through the wire codec.
    Tcp,
    /// In-process channels: no wire, no sockets.
    Chan,
}

/// A frozen real-host workload (FlexiBft, f = 1, n = 4).
#[derive(Debug, Clone, Copy)]
pub struct HostWorkload {
    /// The host.
    pub host: HostKind,
    /// Transactions per consensus batch.
    pub batch: usize,
    /// Transactions per round; `4 × burst` replies stay below the channel
    /// host's 65 536-slot reply queue and `burst / batch` below the
    /// 256-instance in-flight window.
    pub burst: usize,
}

/// `tcp_flexibft`.
pub const TCP_FLEXIBFT: HostWorkload = HostWorkload {
    host: HostKind::Tcp,
    batch: 100,
    burst: 16_000,
};
/// `tcp_flexibft_b20`.
pub const TCP_FLEXIBFT_B20: HostWorkload = HostWorkload {
    host: HostKind::Tcp,
    batch: 20,
    burst: 4_000,
};
/// `chan_flexibft`.
pub const CHAN_FLEXIBFT: HostWorkload = HostWorkload {
    host: HostKind::Chan,
    batch: 100,
    burst: 16_000,
};

/// One round's windows and the host's own summary.
struct Round {
    start: Window,
    run: Window,
    shutdown: Window,
    summary: ClusterSummary,
}

fn run_round(w: &HostWorkload, burst: usize) -> std::io::Result<Round> {
    let s0 = Sample::now();
    let (s1, summary, s2) = match w.host {
        HostKind::Tcp => {
            let cluster = TcpCluster::start(ProtocolId::FlexiBft, 1, w.batch)?;
            let s1 = Sample::now();
            let summary = cluster.run_workload(burst, CLIENTS, ROUND_TIMEOUT);
            let s2 = Sample::now();
            cluster.shutdown();
            (s1, summary, s2)
        }
        HostKind::Chan => {
            let cluster = Cluster::start(ProtocolId::FlexiBft, 1, w.batch);
            let s1 = Sample::now();
            let summary = cluster.run_workload(burst, CLIENTS, ROUND_TIMEOUT);
            let s2 = Sample::now();
            cluster.shutdown();
            (s1, summary, s2)
        }
    };
    let s3 = Sample::now();
    Ok(Round {
        start: s0.until(&s1),
        run: s1.until(&s2),
        shutdown: s2.until(&s3),
        summary,
    })
}

/// The output check of a completed round: the commit log holds exactly
/// `burst` distinct `(client, request)` entries, and the sequence numbers
/// are 1..=burst/batch with `batch` transactions each.
pub fn check_commit_log(
    summary: &ClusterSummary,
    burst: usize,
    batch: usize,
) -> Result<(), String> {
    let log = &summary.commit_log;
    if log.len() != burst {
        return Err(format!(
            "commit log holds {} entries, expected {burst}",
            log.len()
        ));
    }
    let distinct: BTreeSet<(u64, u64)> = log.iter().map(|c| (c.client.0, c.request.0)).collect();
    if distinct.len() != burst {
        return Err(format!(
            "commit log holds {} distinct (client, request) pairs, expected {burst}",
            distinct.len()
        ));
    }
    let batches = burst / batch;
    let mut per_seq = vec![0usize; batches + 1];
    for entry in log {
        match per_seq.get_mut(entry.seq.0 as usize) {
            Some(slot) if entry.seq.0 >= 1 => *slot += 1,
            _ => return Err(format!("sequence {} outside 1..={batches}", entry.seq.0)),
        }
    }
    match per_seq.iter().skip(1).position(|&count| count != batch) {
        Some(i) => Err(format!(
            "sequence {} holds {} transactions, expected {batch}",
            i + 1,
            per_seq[i + 1]
        )),
        None => Ok(()),
    }
}

/// Everything a sequence of rounds measured.
#[derive(Debug, Default)]
pub struct HostStats {
    /// Per completed round: committed txn/s over the effective window.
    pub round_tps: Vec<f64>,
    /// Per completed round: committed txn/s over the raw wall window.
    pub round_tps_wall: Vec<f64>,
    /// Per round: wall seconds of `start()`.
    pub start_s: Vec<f64>,
    /// Per round: wall seconds of `shutdown()`.
    pub shutdown_s: Vec<f64>,
    /// Sum of the measured windows of completed rounds.
    pub measured: Window,
    /// Sum of every `start()` and `shutdown()` window.
    pub setup: Window,
    /// Transactions committed in completed rounds.
    pub committed: u64,
    /// Transactions submitted, stalled rounds included.
    pub attempted: u64,
    /// Transactions a stalled round left uncommitted.
    pub failed: u64,
    /// Rounds that hit the timeout.
    pub stalled_rounds: u64,
    /// Messages the hosts dropped (full queues), all rounds.
    pub dropped_msgs: u64,
    /// Failed output checks, one line each.
    pub check_errors: Vec<String>,
}

impl HostStats {
    /// Median per-round commit rate over effective time.
    pub fn commit_tps(&self) -> f64 {
        median(&self.round_tps).unwrap_or(0.0)
    }

    /// 10th-percentile per-round commit rate: the slow rounds.
    pub fn round_tps_p10(&self) -> f64 {
        p10(&self.round_tps).unwrap_or(0.0)
    }

    /// Process CPU microseconds (user + kernel) per committed transaction.
    pub fn cpu_us_per_txn(&self) -> f64 {
        self.measured.cpu_s() * 1e6 / self.committed.max(1) as f64
    }

    /// Kernel-mode CPU microseconds per committed transaction.
    pub fn sys_us_per_txn(&self) -> f64 {
        self.measured.sys_s * 1e6 / self.committed.max(1) as f64
    }

    /// Median per-round set-up and tear-down (`start()` + `shutdown()`),
    /// in effective seconds. The windows are too short for their own tick
    /// counts, so the delivered share is taken over all of them together.
    pub fn setup_s(&self) -> f64 {
        let per_round: Vec<f64> = self
            .start_s
            .iter()
            .zip(&self.shutdown_s)
            .map(|(a, b)| a + b)
            .collect();
        median(&per_round).unwrap_or(0.0) * self.setup.delivered_share()
    }
}

/// Runs rounds of `w` until `budget` is spent. One short unmeasured round
/// comes first, so that lazy set-up (page faults, allocator growth) is paid
/// before the first measured window. Returns early, with the stall counted,
/// once [`MAX_STALLED_ROUNDS`] rounds have stalled.
pub fn measure_rounds(w: &HostWorkload, budget: Budget) -> std::io::Result<HostStats> {
    let mut stats = HostStats::default();
    run_round(w, w.batch * 10)?;
    let mut rounds = 0usize;
    loop {
        if budget.spent(rounds, MIN_ROUNDS, stats.measured.wall_s)
            || stats.stalled_rounds >= MAX_STALLED_ROUNDS
        {
            return Ok(stats);
        }
        let round = run_round(w, w.burst)?;
        rounds += 1;
        stats.start_s.push(round.start.wall_s);
        stats.shutdown_s.push(round.shutdown.wall_s);
        stats.setup.add(&round.start);
        stats.setup.add(&round.shutdown);
        stats.attempted += w.burst as u64;
        stats.dropped_msgs += round.summary.dropped_messages;
        let committed = round.summary.completed_txns;
        if committed < w.burst as u64 {
            // Excluded from every median; its transactions count as failed.
            stats.stalled_rounds += 1;
            stats.failed += w.burst as u64 - committed;
            continue;
        }
        if let Err(e) = check_commit_log(&round.summary, w.burst, w.batch) {
            stats.check_errors.push(format!("round {rounds}: {e}"));
        }
        stats.committed += committed;
        stats.measured.add(&round.run);
        stats
            .round_tps
            .push(committed as f64 / round.run.effective_s());
        stats
            .round_tps_wall
            .push(committed as f64 / round.run.wall_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust::host::CommittedTxn;

    fn summary(entries: Vec<(u64, u64, u64)>) -> ClusterSummary {
        ClusterSummary {
            completed_txns: entries.len() as u64,
            elapsed: Duration::from_millis(1),
            throughput_tps: 0.0,
            n: 4,
            dropped_messages: 0,
            commit_log: entries
                .into_iter()
                .map(|(seq, client, request)| CommittedTxn {
                    seq: SeqNum(seq),
                    client: ClientId(client),
                    request: RequestId(request),
                })
                .collect(),
        }
    }

    #[test]
    fn commit_log_check_accepts_exact_logs_and_names_each_defect() {
        let good = summary(vec![(1, 0, 1), (1, 1, 1), (2, 0, 2), (2, 1, 2)]);
        assert_eq!(check_commit_log(&good, 4, 2), Ok(()));
        let short = summary(vec![(1, 0, 1), (1, 1, 1), (2, 0, 2)]);
        assert!(check_commit_log(&short, 4, 2)
            .unwrap_err()
            .contains("3 entries"));
        let duplicate = summary(vec![(1, 0, 1), (1, 0, 1), (2, 0, 2), (2, 1, 2)]);
        assert!(check_commit_log(&duplicate, 4, 2)
            .unwrap_err()
            .contains("distinct"));
        let beyond = summary(vec![(1, 0, 1), (1, 1, 1), (2, 0, 2), (3, 1, 2)]);
        assert!(check_commit_log(&beyond, 4, 2)
            .unwrap_err()
            .contains("outside"));
        let lopsided = summary(vec![(1, 0, 1), (1, 1, 1), (1, 0, 2), (2, 1, 2)]);
        assert!(check_commit_log(&lopsided, 4, 2)
            .unwrap_err()
            .contains("sequence 1 holds 3"));
    }
}
