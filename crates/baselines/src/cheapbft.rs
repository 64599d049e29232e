//! CheapBFT: resource-efficient trust-bft with passive replicas.
//!
//! CheapBFT (Kapitza et al.) optimises the failure-free case by keeping only
//! `f + 1` replicas *active*: they run a MinBFT-style two-phase agreement
//! with trusted counters while the remaining `f` replicas stay passive and
//! are only brought in (by switching protocols) when a fault occurs. The
//! paper lists it alongside MinBFT/MinZZ in Figure 1 and notes in §10 that
//! it shares the same sequentiality and responsiveness limitations.
//!
//! This implementation models the failure-free behaviour: passive replicas
//! accept proposals and learn committed batches but never vote, so the
//! message and CPU load of the active set matches CheapBFT's design point.

use crate::common::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for CheapBFT replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheapBft;

impl CheapBft {
    /// The CheapBFT style parameters.
    pub fn style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::CheapBft,
            use_commit_phase: false,
            prepare_quorum_rule: QuorumRule::FPlusOne,
            commit_quorum_rule: QuorumRule::FPlusOne,
            speculative: false,
            primary_attest: PrimaryAttest::HostCounter,
            replica_attest: ReplicaAttest::Counter,
            active_subset_only: true,
        }
    }

    /// The default configuration for fault threshold `f` (`n = 2f + 1`,
    /// `f + 1` of which are active).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::CheapBft, f)
    }

    /// The counter-only enclave CheapBFT expects at each replica.
    pub fn enclave(id: ReplicaId, mode: AttestationMode) -> SharedEnclave {
        Enclave::shared(EnclaveConfig::counter_only(id, mode))
    }

    /// Creates the engine for replica `id`.
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

    fn build(f: usize) -> (Vec<Box<dyn ConsensusEngine>>, Vec<SharedEnclave>) {
        let mut cfg = CheapBft::config(f);
        cfg.batch_size = 1;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let enclaves: Vec<SharedEnclave> = (0..cfg.n)
            .map(|i| CheapBft::enclave(ReplicaId(i as u32), AttestationMode::Counting))
            .collect();
        let engines = (0..cfg.n)
            .map(|i| {
                Box::new(CheapBft::engine(
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
                        value: vec![4].into(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn active_replicas_commit_with_f_plus_1_votes() {
        let (mut engines, _) = build(1); // n = 3, active = 2
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(2))], 200);
        // Active replicas (0 and 1) execute; the passive replica also learns
        // the result because it receives the same quorum of Prepare votes.
        assert_eq!(engines[0].last_executed(), SeqNum(2));
        assert_eq!(engines[1].last_executed(), SeqNum(2));
    }

    #[test]
    fn passive_replicas_never_access_their_counters() {
        let (mut engines, enclaves) = build(1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(2))], 200);
        let passive = enclaves.last().unwrap().stats().snapshot();
        assert_eq!(passive.counter_appends, 0);
        assert!(enclaves[0].stats().snapshot().counter_appends > 0);
    }

    #[test]
    fn properties_match_figure_1() {
        let (engines, _) = build(1);
        let p = engines[0].properties();
        assert_eq!(p.phases, 2);
        assert!(!p.out_of_order);
        assert!(!p.bft_liveness);
    }
}
