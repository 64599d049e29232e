//! Zyzzyva: speculative BFT.
//!
//! Zyzzyva (Kotla et al.) commits in a single phase when everything goes
//! well: the primary orders a request, all replicas execute it speculatively
//! and reply immediately, and the *client* completes when it receives
//! matching replies from **all** `3f + 1` replicas. A single slow or faulty
//! replica pushes every request onto the slow path (an extra round in which
//! the client gathers a commit certificate), which is exactly the fragility
//! Figure 7 of the paper demonstrates and Flexi-ZZ removes (Flexi-ZZ only
//! needs `2f + 1` of `3f + 1` replies).

use crate::common::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for Zyzzyva replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct Zyzzyva;

impl Zyzzyva {
    /// The Zyzzyva style parameters.
    pub fn style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::Zyzzyva,
            use_commit_phase: false,
            prepare_quorum_rule: QuorumRule::TwoFPlusOne,
            commit_quorum_rule: QuorumRule::TwoFPlusOne,
            speculative: true,
            primary_attest: PrimaryAttest::None,
            replica_attest: ReplicaAttest::None,
            active_subset_only: false,
        }
    }

    /// The default configuration for fault threshold `f` (`n = 3f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::Zyzzyva, f)
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
    use flexitrust_types::{ClientId, KvOp, QuorumRule, RequestId, SeqNum, Transaction};

    fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| Transaction::new(ClientId(1), RequestId(i as u64 + 1), KvOp::Read { key: 3 }))
            .collect()
    }

    #[test]
    fn replicas_execute_speculatively_in_one_phase() {
        let mut cfg = Zyzzyva::config(1);
        cfg.batch_size = 1;
        let mut engines: Vec<Box<dyn ConsensusEngine>> = (0..cfg.n)
            .map(|i| {
                Box::new(Zyzzyva::engine(cfg.clone(), ReplicaId(i as u32)))
                    as Box<dyn ConsensusEngine>
            })
            .collect();
        let delivered = run_cluster_until_quiescent(&mut engines, vec![(0, txns(3))], 100);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(3));
        }
        // Single phase: only PrePrepare broadcasts (3 proposals × 4 replicas)
        // plus nothing else.
        assert_eq!(delivered, 12);
    }

    #[test]
    fn client_reply_rule_requires_all_replicas() {
        let e = Zyzzyva::engine(Zyzzyva::config(2), ReplicaId(0));
        assert_eq!(e.properties().reply_quorum, QuorumRule::AllReplicas);
        assert_eq!(e.properties().phases, 1);
        assert!(e.properties().speculative);
    }

    #[test]
    fn speculative_replies_are_flagged_speculative() {
        let mut cfg = Zyzzyva::config(1);
        cfg.batch_size = 1;
        let mut backup = Zyzzyva::engine(cfg.clone(), ReplicaId(1));
        let mut primary = Zyzzyva::engine(cfg, ReplicaId(0));
        let mut out = flexitrust_protocol::Outbox::new();
        primary.on_client_request(txns(1), &mut out);
        let preprepare = out
            .broadcasts()
            .into_iter()
            .find(|m| m.kind() == "PrePrepare")
            .cloned()
            .unwrap();
        let mut out = flexitrust_protocol::Outbox::new();
        backup.on_message(ReplicaId(0), preprepare, &mut out);
        assert_eq!(out.replies().len(), 1);
        assert!(out.replies()[0].speculative);
    }
}
