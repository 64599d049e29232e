//! OPBFT-EA: the authors' out-of-order variant of PBFT-EA.
//!
//! The paper builds Opbft-ea (§9.2) to isolate how much of PBFT-EA's poor
//! performance comes from sequential consensus: it is PBFT-EA with support
//! for parallel consensus invocations. The evaluation finds it gains only
//! about 6% over PBFT-EA because replicas then bottleneck on trusted-counter
//! (log) accesses and the associated signature verification — every received
//! message still costs a MAC check plus an attestation verification, and
//! every sent message still costs a trusted log append.

use crate::common::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for OPBFT-EA replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpbftEa;

impl OpbftEa {
    /// The OPBFT-EA style parameters (PBFT-EA, but out-of-order capable).
    pub fn style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::OpbftEa,
            use_commit_phase: true,
            prepare_quorum_rule: QuorumRule::FPlusOne,
            commit_quorum_rule: QuorumRule::FPlusOne,
            speculative: false,
            primary_attest: PrimaryAttest::Log,
            replica_attest: ReplicaAttest::Log,
            active_subset_only: false,
        }
    }

    /// The default configuration for fault threshold `f` (`n = 2f + 1`).
    ///
    /// Unlike PBFT-EA the default `max_in_flight` is large, so the primary
    /// keeps many consensus instances outstanding concurrently.
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::OpbftEa, f)
    }

    /// The log-based enclave OPBFT-EA expects at each replica.
    pub fn enclave(id: ReplicaId, mode: AttestationMode) -> SharedEnclave {
        Enclave::shared(EnclaveConfig::log_based(id, mode))
    }

    /// Creates the engine for replica `id` with its trusted log enclave.
    pub fn engine(
        config: impl Into<Arc<SystemConfig>>,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> PbftFamilyEngine {
        PbftFamilyEngine::new(config, id, Self::style(), Some(enclave), Some(registry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_protocol::testing::run_cluster_until_quiescent;
    use flexitrust_protocol::ConsensusEngine;
    use flexitrust_types::{ClientId, KvOp, RequestId, SeqNum, Transaction};

    fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i as u64 + 1),
                    KvOp::Update {
                        key: i as u64,
                        value: vec![3].into(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn supports_parallel_consensus_unlike_pbft_ea() {
        assert!(OpbftEa::config(4).max_in_flight > 1);
        assert_eq!(crate::pbft_ea::PbftEa::config(4).max_in_flight, 1);
        assert!(
            OpbftEa::engine(
                OpbftEa::config(1),
                ReplicaId(0),
                OpbftEa::enclave(ReplicaId(0), AttestationMode::Counting),
                EnclaveRegistry::deterministic(3, AttestationMode::Counting),
            )
            .properties()
            .out_of_order
        );
    }

    #[test]
    fn cluster_commits_multiple_instances() {
        let mut cfg = OpbftEa::config(1);
        cfg.batch_size = 1;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let mut engines: Vec<Box<dyn ConsensusEngine>> = (0..cfg.n)
            .map(|i| {
                Box::new(OpbftEa::engine(
                    cfg.clone(),
                    ReplicaId(i as u32),
                    OpbftEa::enclave(ReplicaId(i as u32), AttestationMode::Counting),
                    registry.clone(),
                )) as Box<dyn ConsensusEngine>
            })
            .collect();
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(4))], 300);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(4));
        }
    }
}
