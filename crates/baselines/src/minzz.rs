//! MinZZ: speculative trust-bft (MinBFT's improvement of Zyzzyva).
//!
//! MinZZ (Veronese et al., "efficient Zyzzyva") uses trusted counters to run
//! Zyzzyva with only `n = 2f + 1` replicas: replicas execute speculatively as
//! soon as they receive the primary's attested `PrePrepare`, and the client
//! completes when it has matching replies from **all** `2f + 1` replicas.
//! Like Zyzzyva it collapses to a slow path the moment a single replica is
//! slow or faulty (Figure 7), and like every trust-bft protocol it is
//! sequential (§7) and offers only weak client responsiveness (§5).

use crate::common::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for MinZZ replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinZz;

impl MinZz {
    /// The MinZZ style parameters.
    pub fn style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::MinZz,
            use_commit_phase: false,
            prepare_quorum_rule: QuorumRule::FPlusOne,
            commit_quorum_rule: QuorumRule::FPlusOne,
            speculative: true,
            primary_attest: PrimaryAttest::HostCounter,
            replica_attest: ReplicaAttest::Counter,
            active_subset_only: false,
        }
    }

    /// The default configuration for fault threshold `f` (`n = 2f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::MinZz, f)
    }

    /// The counter-only enclave MinZZ expects at each replica.
    pub fn enclave(id: ReplicaId, mode: AttestationMode) -> SharedEnclave {
        Enclave::shared(EnclaveConfig::counter_only(id, mode))
    }

    /// Creates the engine for replica `id` with its trusted counter enclave.
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
    use flexitrust_types::{ClientId, KvOp, QuorumRule, RequestId, SeqNum, Transaction};

    fn build(f: usize) -> (Vec<Box<dyn ConsensusEngine>>, Vec<SharedEnclave>) {
        let mut cfg = MinZz::config(f);
        cfg.batch_size = 1;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let enclaves: Vec<SharedEnclave> = (0..cfg.n)
            .map(|i| MinZz::enclave(ReplicaId(i as u32), AttestationMode::Counting))
            .collect();
        let engines = (0..cfg.n)
            .map(|i| {
                Box::new(MinZz::engine(
                    cfg.clone(),
                    ReplicaId(i as u32),
                    enclaves[i].clone(),
                    registry.clone(),
                )) as Box<dyn ConsensusEngine>
            })
            .collect();
        (engines, enclaves)
    }

    fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| Transaction::new(ClientId(1), RequestId(i as u64 + 1), KvOp::Read { key: 0 }))
            .collect()
    }

    #[test]
    fn executes_speculatively_in_a_single_phase() {
        let (mut engines, _) = build(1);
        let delivered = run_cluster_until_quiescent(&mut engines, vec![(0, txns(2))], 100);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2));
        }
        // 2 proposals × 3 replicas; no vote traffic.
        assert_eq!(delivered, 6);
    }

    #[test]
    fn client_rule_requires_all_2f_plus_1_replies() {
        let (engines, _) = build(2);
        assert_eq!(
            engines[0].properties().reply_quorum,
            QuorumRule::AllReplicas
        );
        assert_eq!(engines[0].config().n, 5);
        assert!(engines[0].properties().speculative);
    }

    #[test]
    fn only_the_primary_attests_per_consensus_but_it_is_still_per_message() {
        let (mut engines, enclaves) = build(1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(3))], 100);
        // The primary attests each PrePrepare; backups execute speculatively
        // and (in the failure-free path) make no counter accesses.
        assert_eq!(enclaves[0].stats().snapshot().counter_appends, 3);
    }
}
