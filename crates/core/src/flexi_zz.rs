//! Flexi-ZZ: the single-phase speculative FlexiTrust protocol (Figure 4).
//!
//! Flexi-ZZ is the FlexiTrust conversion of MinZZ (and, transitively, of
//! Zyzzyva): the primary binds each batch to its trusted counter with
//! `AppendF` and broadcasts the attested `PrePrepare`; every replica that
//! accepts the proposal executes it speculatively, in sequence order, and
//! replies directly to the client; the client completes with `2f + 1`
//! matching replies out of `3f + 1` replicas.
//!
//! Three properties distinguish it from Zyzzyva/MinZZ (§8.3):
//!
//! * The fast path only needs `n − f` replies, so it survives up to `f`
//!   unresponsive replicas without falling back to a slower path
//!   (Figure 7).
//! * One trusted-counter access per consensus, at the primary only.
//! * A simple view change: an unhappy client re-broadcasts its transaction;
//!   replicas answer from their reply cache or forward it to the primary
//!   and start a timer; on expiry they vote for a view change, and the new
//!   primary creates a fresh counter (`Create`) and re-proposes, in order,
//!   everything that may have committed, filling gaps with no-ops.
//!   Requests executed by fewer than `2f + 1` replicas may be dropped, in
//!   which case those replicas roll back — which is safe precisely because
//!   no client can have completed such a request.

use flexitrust_baselines::{PbftFamilyEngine, ProtocolStyle};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for Flexi-ZZ replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlexiZz;

impl FlexiZz {
    /// The Flexi-ZZ style: MinZZ's single speculative phase, `AppendF`, `2f + 1` quorums.
    pub fn style() -> ProtocolStyle {
        crate::flexi_style(ProtocolId::FlexiZz, true)
    }

    /// The default configuration for fault threshold `f` (`n = 3f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::FlexiZz, f)
    }

    /// The counter-only enclave Flexi-ZZ expects at each replica.
    pub fn enclave(id: ReplicaId, mode: AttestationMode) -> SharedEnclave {
        Enclave::shared(EnclaveConfig::counter_only(id, mode))
    }

    /// Creates the engine for replica `id`; an `OFlexiZz` config builds oFlexi-ZZ.
    #[expect(clippy::new_ret_no_self, reason = "builds the one shared engine")]
    pub fn new(
        config: impl Into<Arc<SystemConfig>>,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> PbftFamilyEngine {
        crate::engine(config, id, Self::style(), enclave, registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{cluster, run, txns};
    use flexitrust_protocol::testing::TestNet;
    use flexitrust_protocol::{Action, ConsensusEngine, Message, Outbox, TimerKind};
    use flexitrust_types::{QuorumRule, SeqNum, View};

    fn flexi_zz(f: usize) -> (Vec<PbftFamilyEngine>, Vec<SharedEnclave>) {
        let mut cfg = FlexiZz::config(f);
        cfg.batch_size = 1;
        cluster(&cfg, FlexiZz::enclave, |c, id, e, r| {
            FlexiZz::new(c, id, e, r)
        })
    }

    #[test]
    fn single_phase_speculative_commit() {
        let mut cfg = FlexiZz::config(1);
        cfg.batch_size = 2;
        let (mut engines, _) = cluster(&cfg, FlexiZz::enclave, |c, id, e, r| {
            FlexiZz::new(c, id, e, r)
        });
        run(&mut engines, vec![(0, txns(4))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2));
            assert_eq!(e.executed_txns(), 4);
        }
    }

    #[test]
    fn replies_are_speculative_and_need_2f_plus_1_at_the_client() {
        let (mut engines, _) = flexi_zz(2);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let mut out = Outbox::new();
        engines[3].on_message(ReplicaId(0), preprepare, &mut out);
        assert_eq!(out.replies().len(), 1);
        assert!(out.replies()[0].speculative);
        let properties = engines[0].properties();
        assert_eq!(properties.reply_quorum, QuorumRule::TwoFPlusOne);
        assert_eq!(properties.phases, 1);
    }

    #[test]
    fn only_the_primary_accesses_its_trusted_counter() {
        let (mut engines, enclaves) = flexi_zz(1);
        run(&mut engines, vec![(0, txns(6))]);
        assert_eq!(enclaves[0].stats().snapshot().counter_append_fs, 6);
        for enclave in &enclaves[1..] {
            assert_eq!(enclave.stats().snapshot().total_accesses(), 0);
        }
    }

    #[test]
    fn fast_path_survives_f_unresponsive_replicas() {
        // With f = 1 (n = 4), one replica never receives anything; the other
        // three still execute and reply — enough for the 2f + 1 = 3 reply
        // rule, unlike MinZZ/Zyzzyva which would need all replicas.
        let (mut engines, _) = flexi_zz(1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let mut replies = 0;
        for engine in engines.iter_mut().take(3) {
            let mut out = Outbox::new();
            engine.on_message(ReplicaId(0), preprepare.clone(), &mut out);
            replies += out.replies().len();
        }
        assert_eq!(replies, 3);
        assert!(replies >= engines[0].config().quorum(QuorumRule::TwoFPlusOne));
    }

    #[test]
    fn client_retry_is_answered_from_the_reply_cache() {
        let (mut engines, _) = flexi_zz(1);
        let request = txns(1);
        run(&mut engines, vec![(0, request.clone())]);
        let mut out = Outbox::new();
        let retry = Message::ClientRetry {
            txn: request[0].clone(),
        };
        engines[2].on_message(ReplicaId(1), retry, &mut out);
        assert_eq!(out.replies().len(), 1);
        assert_eq!(out.replies()[0].request, request[0].request());
    }

    /// Hands replica 2 a retry of a request it never saw; returns the tag of
    /// the timer that arms.
    fn unserved_retry(engines: &mut [PbftFamilyEngine], out: &mut Outbox) -> u64 {
        let txn = txns(1).remove(0);
        engines[2].on_message(ReplicaId(1), Message::ClientRetry { txn }, out);
        out.actions()
            .iter()
            .find_map(|a| match a {
                Action::SetTimer {
                    timer: TimerKind::RequestForwarded(tag),
                    ..
                } => Some(*tag),
                _ => None,
            })
            .expect("a RequestForwarded timer")
    }

    #[test]
    fn unserved_client_retry_forwards_to_primary_and_arms_a_timer() {
        let (mut engines, _) = flexi_zz(1);
        let mut out = Outbox::new();
        unserved_retry(&mut engines, &mut out);
        assert_eq!(out.replies().len(), 0);
        assert_eq!(out.sends().len(), 1);
        assert_eq!(*out.sends()[0].0, ReplicaId(0));
    }

    #[test]
    fn forwarded_request_timeout_triggers_a_view_change_vote() {
        let (mut engines, _) = flexi_zz(1);
        let tag = unserved_retry(&mut engines, &mut Outbox::new());
        let mut out = Outbox::new();
        engines[2].on_timer(TimerKind::RequestForwarded(tag), &mut out);
        let votes = out.broadcasts();
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].kind(), "ViewChange");
        assert!(engines[2].replica().in_view_change());
    }

    #[test]
    fn view_change_reproposes_executed_batches_and_preserves_results() {
        let (mut engines, _) = flexi_zz(1);
        run(&mut engines, vec![(0, txns(2))]);
        // Primary goes silent; every backup times out and votes.
        let mut engines: Vec<&mut PbftFamilyEngine> = engines.iter_mut().collect();
        let mut net = TestNet::new(engines.len());
        for backup in 1..engines.len() {
            net.fire(&mut engines, backup, TimerKind::ViewChange);
        }
        net.run(&mut engines, 100);
        for e in engines.iter().skip(1) {
            assert_eq!(e.view(), View(1), "replica {}", e.id());
            assert_eq!(e.last_executed(), SeqNum(2), "replica {}", e.id());
        }
        assert!(engines[1].is_primary());
        assert!(engines[1].replica().view_changes_completed() >= 1);
    }
}
