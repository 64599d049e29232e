//! PBFT-EA: PBFT with attested append-only memory (A2M).
//!
//! PBFT-EA (Chun et al.) keeps PBFT's three phases but equips every replica
//! with a trusted append-only log: each outgoing consensus message is logged
//! and carries the log's attestation, which prevents equivocation and lets
//! the protocol run with only `n = 2f + 1` replicas and quorums of `f + 1`
//! (§4.2). The price, as the paper analyses, is: every message costs a
//! trusted-component access (Figure 5), the trusted memory footprint grows
//! with the log (Figure 1), consensus instances are sequential (§7), and a
//! quorum of `f + 1` cannot guarantee client responsiveness (§5).

use crate::common::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for PBFT-EA replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct PbftEa;

impl PbftEa {
    /// The PBFT-EA style parameters.
    pub fn style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::PbftEa,
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
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::PbftEa, f)
    }

    /// The log-based enclave PBFT-EA expects at each replica.
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

    fn build(f: usize, batch: usize) -> (Vec<Box<dyn ConsensusEngine>>, Vec<SharedEnclave>) {
        let mut cfg = PbftEa::config(f);
        cfg.batch_size = batch;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let enclaves: Vec<SharedEnclave> = (0..cfg.n)
            .map(|i| PbftEa::enclave(ReplicaId(i as u32), AttestationMode::Counting))
            .collect();
        let engines = (0..cfg.n)
            .map(|i| {
                Box::new(PbftEa::engine(
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
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i as u64 + 1),
                    KvOp::Update {
                        key: i as u64,
                        value: vec![1].into(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn runs_with_2f_plus_1_replicas_and_small_quorums() {
        let (mut engines, _enclaves) = build(1, 1);
        assert_eq!(engines.len(), 3);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(2))], 200);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2));
        }
    }

    #[test]
    fn every_consensus_message_costs_a_trusted_log_access() {
        let (mut engines, enclaves) = build(1, 1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(1))], 200);
        // The primary logs its PrePrepare; every replica logs its Prepare and
        // its Commit. So each replica's enclave sees at least 2 log appends
        // and the primary's at least 3 — this O(n) access pattern per
        // consensus is the §6/Figure 8 cost FlexiTrust eliminates.
        let primary_appends = enclaves[0].stats().snapshot().log_appends;
        assert!(primary_appends >= 3, "primary appends = {primary_appends}");
        for enclave in &enclaves[1..] {
            let appends = enclave.stats().snapshot().log_appends;
            assert!(appends >= 2, "replica appends = {appends}");
        }
    }

    #[test]
    fn properties_match_figure_1() {
        let cfg = PbftEa::config(2);
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let e = PbftEa::engine(
            cfg,
            ReplicaId(0),
            PbftEa::enclave(ReplicaId(0), AttestationMode::Counting),
            registry,
        );
        let p = e.properties();
        assert_eq!(p.phases, 3);
        assert!(!p.out_of_order);
        assert!(!p.bft_liveness);
        assert_eq!(
            p.trusted_abstraction,
            flexitrust_protocol::TrustedAbstraction::Log
        );
    }
}
