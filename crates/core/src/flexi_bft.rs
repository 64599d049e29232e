//! Flexi-BFT: the two-phase FlexiTrust protocol (Figure 3 of the paper).
//!
//! Flexi-BFT is the FlexiTrust conversion of MinBFT (and, transitively, of
//! PBFT): the primary binds each batch to its trusted counter with `AppendF`
//! and broadcasts an attested `PrePrepare`; a backup that accepts the
//! proposal marks it *prepared* immediately (the attestation already rules
//! out equivocation, so PBFT's extra round is unnecessary) and broadcasts a
//! plain `Prepare`; a replica that collects `2f + 1` matching `Prepare`
//! messages marks the batch *committed* and executes it in sequence order;
//! the client completes with `f + 1` matching replies.
//!
//! Compared with MinBFT, moving back to `n = 3f + 1` with `2f + 1` quorums
//! restores client responsiveness (§5), reduces trusted-component usage to
//! one access per consensus at the primary only (§6, G2), and lets the
//! primary keep many consensus instances in flight concurrently (§7, G1).
//! The sequential ablation `oFlexi-BFT` of Figure 6(i) is this same engine
//! with the in-flight window forced to one.

use flexitrust_baselines::{PbftFamilyEngine, ProtocolStyle};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for Flexi-BFT replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlexiBft;

impl FlexiBft {
    /// The Flexi-BFT style: MinBFT's two phases, `AppendF`, `2f + 1` quorums.
    pub fn style() -> ProtocolStyle {
        crate::flexi_style(ProtocolId::FlexiBft, false)
    }

    /// The default configuration for fault threshold `f` (`n = 3f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::FlexiBft, f)
    }

    /// The counter-only enclave Flexi-BFT expects at each replica.
    pub fn enclave(id: ReplicaId, mode: AttestationMode) -> SharedEnclave {
        Enclave::shared(EnclaveConfig::counter_only(id, mode))
    }

    /// Creates the engine for replica `id`; an `OFlexiBft` config builds oFlexi-BFT.
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
    use flexitrust_crypto::{make_batch, Signature};
    use flexitrust_protocol::testing::TestNet;
    use flexitrust_protocol::{ConsensusEngine, Message, Outbox, TimerKind};
    use flexitrust_trusted::{AttestKind, Attestation, AttestationMode};
    use flexitrust_types::{Batch, Digest, QuorumRule, SeqNum, Transaction, View};

    fn flexi_bft(batch_size: usize) -> (Vec<PbftFamilyEngine>, Vec<SharedEnclave>) {
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = batch_size;
        cluster(&cfg, FlexiBft::enclave, |c, id, e, r| {
            FlexiBft::new(c, id, e, r)
        })
    }

    /// The primary's `PrePrepare` for one transaction.
    fn proposal(primary: &mut PbftFamilyEngine, txns: Vec<Transaction>) -> Message {
        let mut out = Outbox::new();
        primary.on_client_request(txns, &mut out);
        out.broadcasts()[0].clone()
    }

    /// Delivers a `PrePrepare` and reports whether the replica accepted it,
    /// i.e. voted for it.
    fn accepts(engine: &mut PbftFamilyEngine, from: u32, msg: Message) -> bool {
        let mut out = Outbox::new();
        engine.on_message(ReplicaId(from), msg, &mut out);
        out.broadcasts().iter().any(|m| m.kind() == "Prepare")
    }

    /// Delivers `voter`'s `Prepare` for `digest` at sequence number 1.
    fn prepare(engine: &mut PbftFamilyEngine, voter: u32, digest: Digest) -> Outbox {
        let vote = Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest,
            attestation: None,
        };
        let mut out = Outbox::new();
        engine.on_message(ReplicaId(voter), vote, &mut out);
        out
    }

    #[test]
    fn cluster_commits_in_two_phases_with_2f_plus_1_quorums() {
        let (mut engines, _) = flexi_bft(2);
        run(&mut engines, vec![(0, txns(4))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2), "replica {}", e.id());
            assert_eq!(e.executed_txns(), 4);
        }
    }

    #[test]
    fn primary_proposes_with_contiguous_counter_values() {
        let (mut engines, enclaves) = flexi_bft(1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(3), &mut out);
        let seqs: Vec<u64> = out
            .broadcasts()
            .iter()
            .filter_map(|m| m.seq().map(|s| s.0))
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(enclaves[0].stats().snapshot().counter_append_fs, 3);
        assert_eq!(engines[0].replica().outstanding(), 3);
    }

    #[test]
    fn only_the_primary_accesses_its_trusted_counter() {
        let (mut engines, enclaves) = flexi_bft(1);
        run(&mut engines, vec![(0, txns(5))]);
        assert_eq!(enclaves[0].stats().snapshot().counter_append_fs, 5);
        for (i, enclave) in enclaves.iter().enumerate().skip(1) {
            let accesses = enclave.stats().snapshot().total_accesses();
            assert_eq!(accesses, 0, "backup {i} must not touch its enclave");
        }
    }

    #[test]
    fn backups_never_touch_their_enclave_on_acceptance() {
        let (mut engines, enclaves) = flexi_bft(1);
        let preprepare = proposal(&mut engines[0], txns(1));
        assert!(accepts(&mut engines[1], 0, preprepare));
        assert_eq!(enclaves[1].stats().snapshot().total_accesses(), 0);
    }

    #[test]
    fn acceptance_rejects_bad_attestations() {
        let (mut engines, _) = flexi_bft(1);
        let Message::PrePrepare {
            view,
            seq,
            batch,
            attestation,
        } = proposal(&mut engines[0], txns(1))
        else {
            panic!("expected a PrePrepare");
        };
        let att = attestation.expect("attested");
        let pp = |seq, batch: &Batch, attestation: Option<Attestation>| Message::PrePrepare {
            view,
            seq,
            batch: batch.clone(),
            attestation,
        };

        // Missing attestation.
        assert!(!accepts(&mut engines[1], 0, pp(seq, &batch, None)));
        // Attestation bound to a different sequence number.
        let mut wrong_seq = att.clone();
        wrong_seq.value = 9;
        assert!(!accepts(
            &mut engines[1],
            0,
            pp(SeqNum(9), &batch, Some(wrong_seq))
        ));
        // Attestation bound to a different batch.
        let other = make_batch(txns(2));
        assert!(!accepts(
            &mut engines[1],
            0,
            pp(seq, &other, Some(att.clone()))
        ));
        // Attestation of another kind.
        let mut created = att.clone();
        created.kind = AttestKind::CounterCreate;
        assert!(!accepts(&mut engines[1], 0, pp(seq, &batch, Some(created))));
        // From a replica that is not the primary.
        assert!(!accepts(
            &mut engines[2],
            1,
            pp(seq, &batch, Some(att.clone()))
        ));
        // The genuine proposal is still acceptable exactly once.
        assert!(accepts(
            &mut engines[1],
            0,
            pp(seq, &batch, Some(att.clone()))
        ));
        assert!(!accepts(&mut engines[1], 0, pp(seq, &batch, Some(att))));
    }

    #[test]
    fn forged_attestation_from_host_key_is_rejected() {
        // Even in Real mode a Byzantine primary cannot fabricate an
        // attestation with its replica key.
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = 1;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Real);
        let enclave = FlexiBft::enclave(ReplicaId(1), AttestationMode::Real);
        let mut backup = FlexiBft::new(cfg, ReplicaId(1), enclave, registry);
        let batch = make_batch(txns(1));
        let forged = Attestation {
            host: ReplicaId(0),
            counter: 0,
            value: 1,
            digest: batch.digest(),
            kind: AttestKind::CounterBind,
            signature: Signature::zero(),
        };
        let preprepare = Message::PrePrepare {
            view: View(0),
            seq: SeqNum(1),
            batch,
            attestation: Some(forged),
        };
        assert!(!accepts(&mut backup, 0, preprepare));
        assert_eq!(backup.accepted_digest(SeqNum(1)), None);
    }

    #[test]
    fn parallel_instances_are_in_flight_simultaneously() {
        let (mut engines, _) = flexi_bft(1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(10), &mut out);
        // All ten proposals go out before any commit, i.e. ten instances are
        // outstanding concurrently (G1).
        assert_eq!(engines[0].replica().outstanding(), 10);
        assert_eq!(out.broadcasts().len(), 10);
    }

    #[test]
    fn sequential_ablation_proposes_one_instance_at_a_time() {
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Counting);
        let mut cfg = SystemConfig::for_protocol(ProtocolId::OFlexiBft, 1);
        cfg.batch_size = 1;
        let enclave = FlexiBft::enclave(ReplicaId(0), AttestationMode::Counting);
        let mut primary = FlexiBft::new(cfg, ReplicaId(0), enclave, registry);
        assert_eq!(primary.properties().id, ProtocolId::OFlexiBft);
        let mut out = Outbox::new();
        primary.on_client_request(txns(10), &mut out);
        assert_eq!(primary.replica().outstanding(), 1);
        assert_eq!(out.broadcasts().len(), 1);
    }

    #[test]
    fn client_reply_rule_is_f_plus_1() {
        let (engines, _) = flexi_bft(1);
        let properties = engines[0].properties();
        assert_eq!(properties.reply_quorum, QuorumRule::FPlusOne);
        assert_eq!(properties.phases, 2);
        assert!(properties.primary_only_tc);
    }

    #[test]
    fn commit_requires_2f_plus_1_prepares() {
        let (mut engines, _) = flexi_bft(1);
        let preprepare = proposal(&mut engines[0], txns(1));
        let digest = match &preprepare {
            Message::PrePrepare { batch, .. } => batch.digest(),
            _ => unreachable!(),
        };
        // The proposal and two Prepare votes: not enough (2f + 1 = 3).
        engines[1].on_message(ReplicaId(0), preprepare, &mut Outbox::new());
        for voter in [1, 2] {
            prepare(&mut engines[1], voter, digest);
        }
        assert_eq!(engines[1].last_executed(), SeqNum(0));
        // The third distinct vote commits.
        let out = prepare(&mut engines[1], 3, digest);
        assert_eq!(engines[1].last_executed(), SeqNum(1));
        assert_eq!(out.replies().len(), 1);
        assert!(!out.replies()[0].speculative);
    }

    #[test]
    fn view_change_creates_a_fresh_counter_and_reproposes_contiguously() {
        let (mut engines, enclaves) = flexi_bft(1);
        // The primary proposed three batches; replica 1 accepted them all
        // but saw no votes.
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(3), &mut out);
        for msg in out.broadcasts() {
            engines[1].on_message(ReplicaId(0), msg.clone(), &mut Outbox::new());
        }
        // Replica 1 suspects the primary: its ViewChange carries the three
        // accepted proposals. With two more votes it leads view 1.
        let mut out = Outbox::new();
        engines[1].on_timer(TimerKind::ViewChange, &mut out);
        let own = out.broadcasts()[0].clone();
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(1), own, &mut out);
        for sender in [2, 3] {
            let vote = Message::ViewChange {
                new_view: View(1),
                last_stable: SeqNum(0),
                prepared: Vec::new(),
            };
            engines[1].on_message(ReplicaId(sender), vote, &mut out);
        }
        assert_eq!(engines[1].view(), View(1));
        assert!(engines[1].is_primary());
        assert_eq!(enclaves[1].stats().snapshot().counter_creates, 1);
        let Some(Message::NewView {
            supporting_votes,
            proposals,
            counter_attestation,
            ..
        }) = out.broadcasts().into_iter().find(|m| m.kind() == "NewView")
        else {
            panic!("no NewView");
        };
        assert_eq!(*supporting_votes, 3);
        let created = counter_attestation.as_ref().expect("creation proof");
        assert_eq!(created.kind, AttestKind::CounterCreate);
        let seqs: Vec<u64> = proposals.iter().map(|(s, _, _)| s.0).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(proposals.iter().all(|(_, _, a)| a.is_some()));
    }

    #[test]
    fn new_view_without_counter_attestation_is_rejected() {
        let (mut engines, _) = flexi_bft(1);
        let new_view = Message::NewView {
            view: View(1),
            supporting_votes: 3,
            proposals: vec![(SeqNum(1), Batch::noop(1), None)],
            counter_attestation: None,
        };
        engines[2].on_message(ReplicaId(1), new_view, &mut Outbox::new());
        assert_eq!(engines[2].view(), View(0));
    }

    #[test]
    fn view_change_preserves_accepted_batches() {
        let (mut engines, _) = flexi_bft(1);
        run(&mut engines, vec![(0, txns(3))]);
        // Everyone executed 3 batches in view 0. Now the primary goes silent
        // and the backups time out.
        let mut engines: Vec<&mut PbftFamilyEngine> = engines.iter_mut().collect();
        let mut net = TestNet::new(engines.len());
        for backup in 1..engines.len() {
            net.fire(&mut engines, backup, TimerKind::ViewChange);
        }
        net.run(&mut engines, 100);
        // The backups are now in view 1 with replica 1 as primary, and the
        // previously executed state is intact.
        for e in engines.iter().skip(1) {
            assert_eq!(e.view(), View(1), "replica {}", e.id());
            assert_eq!(e.last_executed(), SeqNum(3));
        }
        assert!(engines[1].is_primary());
    }
}
