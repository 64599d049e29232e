//! PBFT (Practical Byzantine Fault Tolerance, Castro & Liskov).
//!
//! The reference three-phase BFT protocol the paper uses as its primary
//! non-trusted baseline (§3): `n = 3f + 1` replicas, `PrePrepare` →
//! `Prepare` → `Commit`, quorums of `2f + 1`, clients accept a result after
//! `f + 1` matching replies. PBFT needs no trusted components and — key to
//! the paper's §7 observation — processes consensus instances *in parallel*,
//! which is why it outperforms every sequential trust-bft protocol despite
//! its extra phase and larger replica count.

use crate::common::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for PBFT replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pbft;

impl Pbft {
    /// The PBFT style parameters.
    pub fn style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::Pbft,
            use_commit_phase: true,
            prepare_quorum_rule: QuorumRule::TwoFPlusOne,
            commit_quorum_rule: QuorumRule::TwoFPlusOne,
            speculative: false,
            primary_attest: PrimaryAttest::None,
            replica_attest: ReplicaAttest::None,
            active_subset_only: false,
        }
    }

    /// The default configuration for fault threshold `f` (`n = 3f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::Pbft, f)
    }

    /// Creates the engine for replica `id`.
    pub fn engine(config: impl Into<Arc<SystemConfig>>, id: ReplicaId) -> PbftFamilyEngine {
        PbftFamilyEngine::new(config, id, Self::style(), None, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_protocol::testing::run_cluster_until_quiescent;
    use flexitrust_protocol::ConsensusEngine;
    use flexitrust_types::{ClientId, KvOp, RequestId, SeqNum, Transaction};

    fn cluster(f: usize, batch: usize) -> Vec<Box<dyn ConsensusEngine>> {
        let mut cfg = Pbft::config(f);
        cfg.batch_size = batch;
        (0..cfg.n)
            .map(|i| {
                Box::new(Pbft::engine(cfg.clone(), ReplicaId(i as u32))) as Box<dyn ConsensusEngine>
            })
            .collect()
    }

    fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| {
                Transaction::new(
                    ClientId(7),
                    RequestId(i as u64 + 1),
                    KvOp::Update {
                        key: i as u64,
                        value: vec![0xAB].into(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn commits_with_three_phases_and_parallel_slots() {
        let mut engines = cluster(1, 1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(5))], 200);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(5));
            assert_eq!(e.executed_txns(), 5);
            assert_eq!(e.view().0, 0);
        }
    }

    #[test]
    fn properties_match_figure_1() {
        let e = Pbft::engine(Pbft::config(2), ReplicaId(0));
        let p = e.properties();
        assert_eq!(p.phases, 3);
        assert!(p.out_of_order);
        assert!(!e.style().speculative);
        assert_eq!(e.config().n, 7);
    }

    #[test]
    fn tolerates_f_silent_backups() {
        // With f = 1 and 4 replicas, one silent backup must not block commit.
        let mut engines = cluster(1, 2);
        // Remove replica 3 by never delivering to it: emulate by creating a
        // cluster of only the first three engines plus a dummy sink.
        let mut active: Vec<Box<dyn ConsensusEngine>> = engines.drain(..3).collect();
        // Pad the queue routing with a fourth engine that drops everything by
        // being a fresh engine that we simply never read results from.
        active.push(Box::new(Pbft::engine(Pbft::config(1), ReplicaId(3))));
        run_cluster_until_quiescent(&mut active, vec![(0, txns(2))], 200);
        for e in active.iter().take(3) {
            assert_eq!(e.executed_txns(), 2);
        }
    }
}
