//! MinBFT: two-phase trust-bft with trusted monotonic counters.
//!
//! MinBFT (Veronese et al.) observes that once the primary's proposals are
//! bound to a trusted monotonic counter, PBFT's `Commit` phase is redundant:
//! a replica can commit a batch after `f + 1` matching `Prepare` messages
//! (§4.2). It runs with `n = 2f + 1` replicas and each replica binds every
//! outgoing message to its own counter.
//!
//! MinBFT is the protocol the paper uses to demonstrate all three
//! limitations of trust-bft designs:
//!
//! * §5 — a quorum of `f + 1` may contain only one honest replica, so a
//!   client may never collect the `f + 1` matching replies it needs;
//! * §6 — rolling back the primary's counter re-enables equivocation and
//!   breaks safety;
//! * §7 — in-order counter accesses make consensus inherently sequential.

use crate::common::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for MinBFT replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinBft;

impl MinBft {
    /// The MinBFT style parameters.
    pub fn style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::MinBft,
            use_commit_phase: false,
            prepare_quorum_rule: QuorumRule::FPlusOne,
            commit_quorum_rule: QuorumRule::FPlusOne,
            speculative: false,
            primary_attest: PrimaryAttest::HostCounter,
            replica_attest: ReplicaAttest::Counter,
            active_subset_only: false,
        }
    }

    /// The default configuration for fault threshold `f` (`n = 2f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::MinBft, f)
    }

    /// The counter-only enclave MinBFT expects at each replica.
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
    use flexitrust_types::{ClientId, KvOp, RequestId, SeqNum, Transaction};

    fn build(f: usize, batch: usize) -> (Vec<Box<dyn ConsensusEngine>>, Vec<SharedEnclave>) {
        let mut cfg = MinBft::config(f);
        cfg.batch_size = batch;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let enclaves: Vec<SharedEnclave> = (0..cfg.n)
            .map(|i| MinBft::enclave(ReplicaId(i as u32), AttestationMode::Counting))
            .collect();
        let engines = (0..cfg.n)
            .map(|i| {
                Box::new(MinBft::engine(
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
                        value: vec![2].into(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn commits_in_two_phases_with_f_plus_1_quorums() {
        let (mut engines, _) = build(2, 1); // n = 5
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(3))], 300);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(3));
            assert_eq!(e.executed_txns(), 3);
        }
    }

    #[test]
    fn every_replica_accesses_its_counter_per_consensus() {
        let (mut engines, enclaves) = build(1, 1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(2))], 200);
        for (i, enclave) in enclaves.iter().enumerate() {
            let appends = enclave.stats().snapshot().counter_appends;
            assert!(
                appends >= 2,
                "replica {i} made only {appends} counter accesses"
            );
        }
    }

    #[test]
    fn counter_values_track_sequence_numbers() {
        let (mut engines, enclaves) = build(1, 1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(4))], 300);
        // The primary bound batches 1..=4 to its counter.
        assert_eq!(enclaves[0].counter_value(0), Some(4));
    }

    #[test]
    fn properties_match_figure_1() {
        let (engines, _) = build(1, 1);
        let p = engines[0].properties();
        assert_eq!(p.phases, 2);
        assert!(!p.out_of_order);
        assert!(!p.bft_liveness);
        assert!(!p.primary_only_tc);
        assert_eq!(
            p.trusted_abstraction,
            flexitrust_protocol::TrustedAbstraction::Counter
        );
    }
}
