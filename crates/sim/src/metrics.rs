//! Simulation output: throughput, latency distribution, resource usage.

use flexitrust_types::{Digest, ProtocolId};

pub use crate::link::{Direction, LinkClass, LinkUsage, Nic};
pub use flexitrust_protocol::host::CommittedTxn;

/// The summary a simulation run produces.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The protocol that was simulated.
    pub protocol: ProtocolId,
    /// Fault threshold.
    pub f: usize,
    /// Number of replicas.
    pub n: usize,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Measured (post-warm-up) duration in seconds.
    pub duration_s: f64,
    /// Whole-run simulated time (warm-up included) in seconds — the window
    /// link accounting spans.
    pub total_duration_s: f64,
    /// Transactions completed at clients during the measured window.
    pub completed_txns: u64,
    /// Client-observed throughput in transactions per second.
    pub throughput_tps: f64,
    /// Mean client latency in milliseconds.
    pub avg_latency_ms: f64,
    /// Median client latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile client latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Protocol messages delivered during the whole run.
    pub messages_delivered: u64,
    /// Discrete events processed by the simulation loop during the whole
    /// run (deliveries, transmit/ingest chunks, timers, client arrivals).
    /// Divided by wall-clock time this is the simulator's native speed —
    /// the figure the zero-copy throughput harness gates on.
    pub events_processed: u64,
    /// Total trusted-component accesses across all replicas.
    pub tc_accesses_total: u64,
    /// Trusted-component accesses at the (initial) primary.
    pub tc_accesses_primary: u64,
    /// Total transactions executed at the busiest replica (sanity check that
    /// execution kept up with client completion).
    pub max_replica_executed: u64,
    /// Total wire-occupancy (transmission) time across every link of the
    /// run, nanoseconds. Zero under `BandwidthConfig::unlimited()`.
    pub net_busy_ns: u64,
    /// Total time transfers spent queued behind earlier transfers on a
    /// NIC lane (sender egress or receiver ingress), nanoseconds. Non-zero
    /// only when a lane saturates: the contention signal of the serialising
    /// FIFO link model.
    pub net_queue_delay_ns: u64,
    /// Per-(NIC, link class, direction) lane usage, sorted by NIC, class,
    /// direction. Egress rows are what NICs sent; ingress rows (present
    /// only when `ingress_mbps` is configured) are what they ingested.
    pub link_usage: Vec<LinkUsage>,
    /// Per-replica `(last_executed, state digest)` at the end of the run —
    /// the basis of the chaos safety check. `None` digests come from
    /// engines that do not expose one.
    pub replica_frontiers: Vec<(u64, Option<Digest>)>,
    /// Disruptive chaos events applied (partitions formed, crashes — both
    /// scripted and commit-triggered).
    pub chaos_disruptions: u64,
    /// Virtual time (ns) of the last restorative chaos event (partition
    /// heal or replica recovery); 0 when none fired.
    pub last_restore_ns: u64,
    /// Client completions at or after the last restorative event — the
    /// liveness checker's progress signal.
    pub completed_after_restore: u64,
    /// Every completed transaction (warm-up included), sorted by sequence
    /// number; the basis of cross-host equivalence checks. Recorded only
    /// when `ScenarioSpec::record_commit_log` is set (on in `quick_test`,
    /// off in `paper_default` to keep bench-scale runs lean).
    pub commit_log: Vec<CommittedTxn>,
}

impl SimReport {
    /// Throughput normalised per replica ("throughput-per-machine",
    /// Figure 9).
    pub fn throughput_per_machine(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.throughput_tps / self.n as f64
        }
    }

    /// Utilisation of the busiest *egress* link in the run: wire time
    /// reserved on the most loaded (sender NIC, link class) pair divided by
    /// the whole-run time (link accounting spans warm-up too, so the window
    /// must as well). Approaches 1.0 as a leader NIC saturates and exceeds
    /// it once the offered load outruns the link (a backlog is building).
    /// [`Self::max_ingress_utilization`] is the receive-side analogue.
    pub fn max_link_utilization(&self) -> f64 {
        let duration_ns = (self.total_duration_s * 1e9) as u64;
        self.link_usage
            .iter()
            .filter(|u| u.direction == Direction::Egress)
            .map(|u| u.utilization(duration_ns))
            .fold(0.0, f64::max)
    }

    /// Utilisation of the busiest *ingress* lane: the receive-side analogue
    /// of [`Self::max_link_utilization`]. Approaches 1.0 as a receiver —
    /// a replica under vote implosion — becomes ingest-bound. Zero when no
    /// ingress bandwidth is configured (receivers then ingest for free and
    /// no ingress rows exist). Only replica NICs own ingress lanes: the
    /// aggregate client pool stands for many independent client NICs and
    /// never ingest-serialises, so reply fan-in cannot masquerade as a
    /// saturated replica here.
    pub fn max_ingress_utilization(&self) -> f64 {
        let duration_ns = (self.total_duration_s * 1e9) as u64;
        self.link_usage
            .iter()
            .filter(|u| u.direction == Direction::Ingress)
            .map(|u| u.utilization(duration_ns))
            .fold(0.0, f64::max)
    }

    /// The usage entry with the most wire-occupancy time across *all*
    /// lanes — egress and ingress alike — if any link ever transmitted
    /// (under unlimited bandwidth none does).
    pub fn busiest_link(&self) -> Option<&LinkUsage> {
        self.link_usage.iter().max_by_key(|u| u.busy_ns)
    }

    /// The chaos safety/liveness invariant checker.
    ///
    /// **Safety**: no two replicas that executed equally far may hold
    /// divergent state digests — under *any* plan, partitioned, crashed or
    /// chaos-ridden. (Prefix agreement below the frontier is enforced by
    /// the checkpoint protocol itself: stable checkpoints require a quorum
    /// of matching state digests.)
    ///
    /// **Liveness**: commit progress must have resumed after the last
    /// restorative event (partition heal / replica recovery); a plan with
    /// no restorative events must simply have completed transactions.
    pub fn check_chaos_invariants(&self) -> Result<(), String> {
        for (i, (seq_a, digest_a)) in self.replica_frontiers.iter().enumerate() {
            for (j, (seq_b, digest_b)) in self.replica_frontiers.iter().enumerate().skip(i + 1) {
                if seq_a != seq_b {
                    continue;
                }
                if let (Some(a), Some(b)) = (digest_a, digest_b) {
                    if a != b {
                        return Err(format!(
                            "safety violation: replicas {i} and {j} both executed \
                             through seq {seq_a} with divergent state digests"
                        ));
                    }
                }
            }
        }
        if self.last_restore_ns > 0 {
            if self.completed_after_restore == 0 {
                return Err(format!(
                    "liveness violation: no client completions after the last \
                     heal/recover at {} ns",
                    self.last_restore_ns
                ));
            }
        } else if self.completed_txns == 0 {
            return Err("liveness violation: no transactions completed".to_string());
        }
        Ok(())
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<11} f={:<2} n={:<3} clients={:<6} tput={:>10.0} tx/s lat(avg/p50/p99)={:>7.2}/{:>7.2}/{:>7.2} ms tc={}",
            self.protocol.name(),
            self.f,
            self.n,
            self.clients,
            self.throughput_tps,
            self.avg_latency_ms,
            self.p50_latency_ms,
            self.p99_latency_ms,
            self.tc_accesses_total,
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample set:
/// the smallest sample such that at least `p` of the distribution is at or
/// below it (rank `⌈p·n⌉`, 1-indexed). Used for every reported percentile so
/// p50 and p99 cannot disagree about rounding: the old code indexed p50 at
/// `n/2` (overshooting the median for small even `n`) but truncated the p99
/// rank downward.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(!sorted.is_empty(), "percentile of an empty sample set");
    debug_assert!((0.0..=1.0).contains(&p));
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// An append-only record of a run (latency samples, the commit log), kept
/// in fixed-size segments while the run grows it and joined into one
/// exact-size `Vec` at the end.
///
/// A plain `Vec` doubling its way up to several MiB made the peak resident
/// set of repeated runs depend on the seed: once the first such buffer is
/// freed glibc raises its `mmap` threshold to that size, later runs
/// reallocate the doubling buffer on the `brk` heap, and how much of the
/// abandoned halves is ever reused follows the timing of the completions
/// (2 MiB steps in `sim_crash_recover`). Segments stay below the threshold
/// and never move, so every run and every seed lays the heap out alike.
#[derive(Debug)]
pub(crate) struct RunLog<T> {
    full: Vec<Vec<T>>,
    tail: Vec<T>,
}

impl<T> RunLog<T> {
    /// Entries per segment: 48 KiB of `CommittedTxn`, 16 KiB of samples.
    const SEGMENT: usize = 2048;

    pub(crate) fn new() -> Self {
        RunLog {
            full: Vec::new(),
            tail: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, entry: T) {
        if self.tail.len() == self.tail.capacity() {
            let fresh = Vec::with_capacity(Self::SEGMENT);
            let filled = std::mem::replace(&mut self.tail, fresh);
            if !filled.is_empty() {
                self.full.push(filled);
            }
        }
        self.tail.push(entry);
    }

    #[cfg(test)]
    pub(crate) fn last(&self) -> Option<&T> {
        self.tail.last()
    }

    /// Every entry, in the order pushed.
    pub(crate) fn into_vec(self) -> Vec<T> {
        let mut all = Vec::with_capacity(self.full.len() * Self::SEGMENT + self.tail.len());
        for segment in self.full {
            all.extend(segment);
        }
        all.extend(self.tail);
        all
    }
}

/// Computes latency statistics (in milliseconds) from nanosecond samples.
pub(crate) fn latency_stats_ms(samples: &mut [u64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    samples.sort_unstable();
    let to_ms = |ns: u64| ns as f64 / 1_000_000.0;
    let avg = samples.iter().map(|s| *s as f64).sum::<f64>() / samples.len() as f64 / 1_000_000.0;
    let p50 = to_ms(percentile(samples, 0.50));
    let p99 = to_ms(percentile(samples, 0.99));
    (avg, p50, p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            protocol: ProtocolId::FlexiZz,
            f: 8,
            n: 25,
            clients: 1000,
            duration_s: 0.8,
            total_duration_s: 1.0,
            completed_txns: 50_000,
            throughput_tps: 50_000.0,
            avg_latency_ms: 1.5,
            p50_latency_ms: 1.2,
            p99_latency_ms: 4.0,
            messages_delivered: 100_000,
            events_processed: 250_000,
            tc_accesses_total: 500,
            tc_accesses_primary: 500,
            max_replica_executed: 50_000,
            net_busy_ns: 600_000_000,
            net_queue_delay_ns: 150_000_000,
            link_usage: vec![
                LinkUsage {
                    nic: Nic::Replica(flexitrust_types::ReplicaId(0)),
                    class: LinkClass::Wan,
                    direction: Direction::Egress,
                    busy_ns: 500_000_000,
                    queue_delay_ns: 150_000_000,
                    messages: 900,
                },
                LinkUsage {
                    nic: Nic::Replica(flexitrust_types::ReplicaId(1)),
                    class: LinkClass::Wan,
                    direction: Direction::Egress,
                    busy_ns: 100_000_000,
                    queue_delay_ns: 0,
                    messages: 180,
                },
                LinkUsage {
                    nic: Nic::Replica(flexitrust_types::ReplicaId(0)),
                    class: LinkClass::Wan,
                    direction: Direction::Ingress,
                    busy_ns: 250_000_000,
                    queue_delay_ns: 75_000_000,
                    messages: 600,
                },
            ],
            replica_frontiers: vec![(100, Some(Digest::from_u64_tag(1))); 4],
            chaos_disruptions: 0,
            last_restore_ns: 0,
            completed_after_restore: 0,
            commit_log: Vec::new(),
        }
    }

    #[test]
    fn chaos_checker_flags_divergent_digests_at_equal_frontiers() {
        let mut r = report();
        assert!(r.check_chaos_invariants().is_ok());
        // Divergence at the same frontier is a safety violation…
        r.replica_frontiers[2] = (100, Some(Digest::from_u64_tag(9)));
        assert!(r
            .check_chaos_invariants()
            .unwrap_err()
            .contains("safety violation"));
        // …but a replica still catching up (different frontier) is not.
        r.replica_frontiers[2] = (60, Some(Digest::from_u64_tag(9)));
        assert!(r.check_chaos_invariants().is_ok());
        // Engines without a digest are skipped rather than failed.
        r.replica_frontiers[2] = (100, None);
        assert!(r.check_chaos_invariants().is_ok());
    }

    #[test]
    fn chaos_checker_requires_progress_after_the_last_restore() {
        let mut r = report();
        r.last_restore_ns = 200_000_000;
        r.completed_after_restore = 0;
        assert!(r
            .check_chaos_invariants()
            .unwrap_err()
            .contains("liveness violation"));
        r.completed_after_restore = 17;
        assert!(r.check_chaos_invariants().is_ok());
        // Without restorative events, overall progress is the bar.
        let mut quiet = report();
        quiet.completed_txns = 0;
        assert!(quiet
            .check_chaos_invariants()
            .unwrap_err()
            .contains("liveness violation"));
    }

    #[test]
    fn per_machine_divides_by_n() {
        let r = report();
        assert!((r.throughput_per_machine() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn summary_line_contains_protocol_and_throughput() {
        let line = report().summary_line();
        assert!(line.contains("Flexi-ZZ"));
        assert!(line.contains("50000"));
    }

    #[test]
    fn max_link_utilization_picks_the_busiest_link() {
        let r = report();
        // 500 ms busy over a 1 s run.
        assert!((r.max_link_utilization() - 0.5).abs() < 1e-9);
        let busiest = r.busiest_link().unwrap();
        assert_eq!(busiest.nic, Nic::Replica(flexitrust_types::ReplicaId(0)));
        assert_eq!(busiest.messages, 900);
    }

    #[test]
    fn max_ingress_utilization_only_sees_ingress_lanes() {
        let r = report();
        // The busiest ingress lane carries 250 ms over the 1 s run — the
        // 500 ms egress row must not leak into the receive-side figure.
        assert!((r.max_ingress_utilization() - 0.25).abs() < 1e-9);
        let mut egress_only = r.clone();
        egress_only
            .link_usage
            .retain(|u| u.direction == Direction::Egress);
        assert_eq!(egress_only.max_ingress_utilization(), 0.0);
        // And the reciprocal: an ingress lane hotter than every egress lane
        // must not leak into the sender-side figure.
        let mut hot_ingress = r.clone();
        hot_ingress.link_usage.push(LinkUsage {
            nic: Nic::Replica(flexitrust_types::ReplicaId(2)),
            class: LinkClass::Wan,
            direction: Direction::Ingress,
            busy_ns: 990_000_000,
            queue_delay_ns: 0,
            messages: 1,
        });
        assert!((hot_ingress.max_link_utilization() - 0.5).abs() < 1e-9);
        assert!((hot_ingress.max_ingress_utilization() - 0.99).abs() < 1e-9);
    }

    #[test]
    fn percentiles_use_the_nearest_rank_for_every_p() {
        // n = 1: every percentile is the single sample.
        assert_eq!(percentile(&[7], 0.50), 7);
        assert_eq!(percentile(&[7], 0.99), 7);
        // n = 2: the median is the first sample (rank ⌈0.5·2⌉ = 1), not the
        // second (the old `len/2` indexing returned 20 here).
        assert_eq!(percentile(&[10, 20], 0.50), 10);
        assert_eq!(percentile(&[10, 20], 0.99), 20);
        // n = 4: rank ⌈2⌉ = 2 → the second sample, not the third.
        assert_eq!(percentile(&[1, 2, 3, 4], 0.50), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.99), 4);
        // n = 100: p50 is the 50th sample, p99 the 99th.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn latency_stats_agree_with_the_percentile_helper() {
        let mut samples: Vec<u64> = (1..=4).map(|v| v * 1_000_000).collect();
        let (avg, p50, p99) = latency_stats_ms(&mut samples);
        assert!((avg - 2.5).abs() < 1e-9);
        assert!((p50 - 2.0).abs() < 1e-9);
        assert!((p99 - 4.0).abs() < 1e-9);
        assert_eq!(latency_stats_ms(&mut []), (0.0, 0.0, 0.0));
    }

    #[test]
    fn run_log_keeps_every_entry_in_push_order_across_segments() {
        assert!(RunLog::<u64>::new().into_vec().is_empty());
        for n in [1, RunLog::<u64>::SEGMENT, RunLog::<u64>::SEGMENT + 1, 5_000] {
            let mut log = RunLog::new();
            (0..n as u64).for_each(|v| log.push(v));
            assert_eq!(log.last(), Some(&(n as u64 - 1)));
            let all = log.into_vec();
            assert_eq!(all, (0..n as u64).collect::<Vec<_>>());
            assert_eq!(all.capacity(), n);
        }
    }
}
