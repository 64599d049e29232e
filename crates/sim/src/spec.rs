//! Scenario specifications.

use crate::chaos::ChaosPlan;
use crate::cost::CostModel;
use crate::workload::WorkloadConfig;
use flexitrust_trusted::TrustedHardware;
use flexitrust_types::{BandwidthConfig, ProtocolId, SystemConfig};

/// Everything needed to run one simulated experiment.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The protocol under test.
    pub protocol: ProtocolId,
    /// Fault threshold `f` (the replica count follows from the protocol).
    pub f: usize,
    /// Transactions per consensus batch.
    pub batch_size: usize,
    /// Number of closed-loop clients (each keeps one transaction in flight).
    pub clients: usize,
    /// Number of worker threads per replica.
    pub workers_per_replica: usize,
    /// Trusted hardware at each replica (access latency / rollback model).
    pub hardware: TrustedHardware,
    /// CPU cost model.
    pub cost: CostModel,
    /// Number of WAN regions (1 = single-datacenter LAN).
    pub regions: usize,
    /// Per-link network bandwidth; unlimited reproduces the pure-latency
    /// model, `wan_constrained` opens Figure 6(vi)-style scenarios where
    /// delivery time grows with message wire size.
    pub bandwidth: BandwidthConfig,
    /// Whether to record every completion in `SimReport::commit_log`.
    /// On for test-scale scenarios (cross-host equivalence checks read it);
    /// off for bench-scale runs, which would otherwise accumulate hundreds
    /// of thousands of entries nobody reads.
    pub record_commit_log: bool,
    /// Simulated duration to measure, in microseconds.
    pub duration_us: u64,
    /// Simulated warm-up excluded from measurement, in microseconds.
    pub warmup_us: u64,
    /// Workload mix.
    pub workload: WorkloadConfig,
    /// The fault / adversary plan: whole-run and time-scripted crashes,
    /// partitions, seeded drop/dup/reorder, crash-recovery via checkpoint
    /// rejoin, the §5 withhold/delay adversary. Empty plans cost nothing:
    /// the event schedule stays bit-identical to a run without one.
    pub chaos: ChaosPlan,
    /// Overrides the protocol's checkpoint interval when set; chaos
    /// scenarios shorten it so crash-recovery exercises state transfer
    /// within test-scale runs.
    pub checkpoint_interval: Option<u64>,
    /// Random seed for workload generation.
    pub seed: u64,
    /// Overrides the client retry/fallback timeout (microseconds); short
    /// simulations lower it so that the Zyzzyva/MinZZ slow path fits inside
    /// the simulated window.
    pub client_timeout_us: Option<u64>,
}

impl ScenarioSpec {
    /// The paper's default setup scaled to simulation length: f = 8,
    /// batch size 100, LAN, SGX-enclave counters, YCSB, 16 workers.
    pub fn paper_default(protocol: ProtocolId) -> Self {
        ScenarioSpec {
            protocol,
            f: 8,
            batch_size: 100,
            clients: 20_000,
            workers_per_replica: 16,
            hardware: TrustedHardware::default_enclave(),
            cost: CostModel::calibrated(),
            regions: 1,
            bandwidth: BandwidthConfig::unlimited(),
            record_commit_log: false,
            duration_us: 400_000,
            warmup_us: 100_000,
            workload: WorkloadConfig::tiny(),
            chaos: ChaosPlan::none(),
            checkpoint_interval: None,
            seed: 42,
            client_timeout_us: None,
        }
    }

    /// A small, fast configuration for unit/integration tests.
    pub fn quick_test(protocol: ProtocolId) -> Self {
        ScenarioSpec {
            f: 1,
            batch_size: 10,
            clients: 200,
            duration_us: 150_000,
            warmup_us: 30_000,
            client_timeout_us: Some(20_000),
            record_commit_log: true,
            ..Self::paper_default(protocol)
        }
    }

    /// The derived system configuration for the protocol engines.
    pub fn system_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::for_protocol(self.protocol, self.f);
        cfg.batch_size = self.batch_size;
        if let Some(timeout) = self.client_timeout_us {
            cfg.client_timeout_us = timeout;
        }
        if let Some(interval) = self.checkpoint_interval {
            cfg.checkpoint_interval = interval;
        }
        cfg
    }

    /// Total number of replicas in the deployment.
    pub fn replicas(&self) -> usize {
        self.system_config().n
    }

    /// Total simulated time (warm-up + measurement) in microseconds.
    pub fn total_time_us(&self) -> u64 {
        self.duration_us + self.warmup_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let spec = ScenarioSpec::paper_default(ProtocolId::FlexiZz);
        assert_eq!(spec.f, 8);
        assert_eq!(spec.batch_size, 100);
        assert_eq!(spec.replicas(), 25);
        assert_eq!(spec.workers_per_replica, 16);
        let minbft = ScenarioSpec::paper_default(ProtocolId::MinBft);
        assert_eq!(minbft.replicas(), 17);
    }

    #[test]
    fn total_time_includes_warmup() {
        let spec = ScenarioSpec::quick_test(ProtocolId::Pbft);
        assert_eq!(spec.total_time_us(), spec.duration_us + spec.warmup_us);
    }
}
