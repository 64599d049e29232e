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
//! with the in-flight window forced to one ([`FlexiBft::sequential`]).

use crate::common::FlexiCore;
use flexitrust_protocol::{
    CertificateTracker, ConsensusEngine, Message, Outbox, ProtocolProperties, ReplicaCore,
    TimerKind,
};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{Digest, ProtocolId, ReplicaId, SeqNum, SystemConfig, Transaction, View};
use std::sync::Arc;

/// A Flexi-BFT replica engine.
pub struct FlexiBft {
    sequential: bool,
    flexi: FlexiCore,
    prepare_votes: CertificateTracker<(View, SeqNum, Digest)>,
    prepare_sent: std::collections::BTreeSet<u64>,
    committed: std::collections::BTreeSet<u64>,
}

impl FlexiBft {
    /// The default configuration for fault threshold `f` (`n = 3f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::FlexiBft, f)
    }

    /// The counter-only enclave Flexi-BFT expects at each replica.
    pub fn enclave(id: ReplicaId, mode: AttestationMode) -> SharedEnclave {
        Enclave::shared(EnclaveConfig::counter_only(id, mode))
    }

    /// Creates the engine for replica `id`.
    pub fn new(
        config: impl Into<Arc<SystemConfig>>,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> Self {
        let config = config.into();
        let prepare_quorum = config.large_quorum();
        let sequential = config.protocol == ProtocolId::OFlexiBft || config.max_in_flight == 1;
        FlexiBft {
            sequential,
            prepare_votes: CertificateTracker::new(prepare_quorum),
            prepare_sent: std::collections::BTreeSet::new(),
            committed: std::collections::BTreeSet::new(),
            flexi: FlexiCore::new(config, id, enclave, registry),
        }
    }

    /// Shared FlexiTrust state (exposed for tests and attack harnesses).
    pub fn flexi(&self) -> &FlexiCore {
        &self.flexi
    }

    fn on_preprepare(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        batch: flexitrust_types::Batch,
        attestation: Option<flexitrust_trusted::Attestation>,
        out: &mut Outbox,
    ) {
        let Some(accepted) = self
            .flexi
            .accept_preprepare(from, view, seq, batch, attestation)
        else {
            return;
        };
        // The attested proposal is already "prepared" in the PBFT sense; one
        // round of Prepare votes is enough to commit (Figure 3, line 9).
        if self.prepare_sent.insert(seq.0) {
            out.broadcast(Message::Prepare {
                view,
                seq,
                digest: accepted.digest,
                attestation: None,
            });
        }
        // Links are not FIFO across senders: the backups' Prepares can
        // overtake the proposal they vote for at a backup. (The primary's
        // own copy cannot be overtaken on the threaded hosts: it never
        // leaves the primary's thread and is delivered before the next
        // input.) The tracker reports a quorum exactly once, so one that
        // formed before the proposal arrived is re-evaluated here.
        if self
            .prepare_votes
            .is_complete(&(view, seq, accepted.digest))
        {
            self.try_commit(seq, accepted.digest, out);
        }
    }

    fn on_prepare(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        digest: Digest,
        out: &mut Outbox,
    ) {
        if view != self.flexi.replica.view() || self.flexi.replica.in_view_change() {
            return;
        }
        if seq <= self.flexi.replica.low_water_mark() {
            // Below the stable checkpoint the vote state is pruned; a late
            // Prepare must not recreate it.
            return;
        }
        if !self.prepare_votes.vote((view, seq, digest), from) {
            return;
        }
        self.try_commit(seq, digest, out);
    }

    fn try_commit(&mut self, seq: SeqNum, digest: Digest, out: &mut Outbox) {
        if self.committed.contains(&seq.0) {
            return;
        }
        let Some(accepted) = self.flexi.accepted(seq) else {
            return;
        };
        if accepted.digest != digest {
            return;
        }
        let batch = accepted.batch.clone();
        self.committed.insert(seq.0);
        let executed = self.flexi.replica.commit_batch(seq, batch, false, out);
        for done in executed {
            self.flexi.replica.maybe_emit_checkpoint(done.seq, out);
            self.flexi.instance_finished(done.seq, out);
        }
    }

    /// Garbage-collects the per-sequence vote state at or below a stable
    /// checkpoint (`FlexiCore` prunes its accepted proposals itself).
    fn forget_through(&mut self, stable: SeqNum) {
        self.prepare_votes.retain(|(_, s, _)| *s > stable);
        self.prepare_sent.retain(|s| *s > stable.0);
        self.committed.retain(|s| *s > stable.0);
    }

    fn adopt_proposals(
        &mut self,
        from: ReplicaId,
        view: View,
        proposals: Vec<(
            SeqNum,
            flexitrust_types::Batch,
            Option<flexitrust_trusted::Attestation>,
        )>,
        out: &mut Outbox,
    ) {
        for (seq, batch, attestation) in proposals {
            if self.flexi.replica.exec().is_executed(seq) {
                continue;
            }
            self.on_preprepare(from, view, seq, batch, attestation, out);
        }
    }
}

impl ConsensusEngine for FlexiBft {
    fn replica(&self) -> &ReplicaCore {
        &self.flexi.replica
    }

    fn properties(&self) -> ProtocolProperties {
        ProtocolProperties::for_protocol(if self.sequential {
            ProtocolId::OFlexiBft
        } else {
            ProtocolId::FlexiBft
        })
    }

    fn on_client_request(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
        self.flexi
            .replica
            .on_client_request(txns, self.flexi.counter.bind(), out);
    }

    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn on_message(&mut self, from: ReplicaId, msg: Message, out: &mut Outbox) {
        if !self.flexi.replica.config().contains(from) {
            return;
        }
        match msg {
            Message::PrePrepare {
                view,
                seq,
                batch,
                attestation,
            } => self.on_preprepare(from, view, seq, batch, attestation, out),
            Message::Prepare {
                view, seq, digest, ..
            } => self.on_prepare(from, view, seq, digest, out),
            Message::Commit { .. } => {
                // Flexi-BFT has no commit phase; ignore stray messages.
            }
            Message::Checkpoint {
                seq, state_digest, ..
            } => {
                if let Some(stable) = self.flexi.on_checkpoint(from, seq, state_digest) {
                    self.forget_through(stable);
                }
            }
            Message::ViewChange {
                new_view,
                last_stable,
                prepared,
            } => {
                let self_id = self.flexi.replica.id();
                let reproposed =
                    self.flexi
                        .on_view_change(from, new_view, last_stable, prepared, false, out);
                self.adopt_proposals(self_id, new_view, reproposed, out);
            }
            Message::NewView {
                view,
                supporting_votes,
                proposals,
                counter_attestation,
            } => {
                let adopted = self.flexi.on_new_view(
                    from,
                    view,
                    supporting_votes,
                    proposals,
                    counter_attestation,
                    out,
                );
                self.adopt_proposals(from, view, adopted, out);
            }
            Message::ClientRetry { txn } => {
                let bind = self.flexi.counter.bind();
                self.flexi
                    .replica
                    .on_client_retry(txn, TimerKind::ViewChange, bind, out);
            }
            Message::ForwardRequest { txns } => {
                self.flexi
                    .replica
                    .enqueue(txns, self.flexi.counter.bind(), out);
            }
            Message::CheckpointRequest { last_executed } => {
                self.flexi.on_checkpoint_request(from, last_executed, out);
            }
            Message::CheckpointState {
                seq,
                snapshot,
                batches,
            } => {
                if self
                    .flexi
                    .install_checkpoint_state(seq, &snapshot, batches, false, out)
                {
                    // Committed/prepared bookkeeping below the installed
                    // checkpoint is superseded by the transferred state.
                    self.forget_through(seq);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerKind, out: &mut Outbox) {
        match timer {
            TimerKind::BatchFlush => {
                self.flexi
                    .replica
                    .flush_batch(self.flexi.counter.bind(), out);
            }
            TimerKind::ViewChange | TimerKind::RequestForwarded(_) => {
                self.flexi.start_view_change(false, out);
            }
            TimerKind::Checkpoint => {}
        }
    }
}

/// Builds a full Flexi-BFT cluster (engine per replica) over counting-mode
/// enclaves; used by tests, examples and the simulator registry.
pub fn build_cluster(config: &SystemConfig) -> Vec<FlexiBft> {
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    (0..config.n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            FlexiBft::new(
                config.clone(),
                id,
                FlexiBft::enclave(id, AttestationMode::Counting),
                registry.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_protocol::testing::{run_cluster_until_quiescent, TestNet};
    use flexitrust_types::{ClientId, KvOp, QuorumRule, RequestId};

    fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i as u64 + 1),
                    KvOp::Update {
                        key: i as u64,
                        value: vec![9].into(),
                    },
                )
            })
            .collect()
    }

    /// Deliver all queued messages between engines until quiescence.
    fn run(engines: &mut [FlexiBft], inject: Vec<(usize, Vec<Transaction>)>) {
        let mut engines: Vec<&mut FlexiBft> = engines.iter_mut().collect();
        run_cluster_until_quiescent(&mut engines, inject, 300);
    }

    #[test]
    fn prepare_quorum_fits_the_untrusted_regime_for_every_f() {
        let regime = ProtocolId::FlexiBft.replication_factor();
        for f in 1..=64 {
            let cfg = FlexiBft::config(f);
            let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
            let enclave = FlexiBft::enclave(ReplicaId(0), AttestationMode::Counting);
            let engine = FlexiBft::new(cfg, ReplicaId(0), enclave, registry);
            let quorum = engine.prepare_votes.threshold();
            assert!(
                regime.admits_quorum(f, quorum),
                "quorum {quorum} at f = {f}"
            );
        }
    }

    #[test]
    fn cluster_commits_in_two_phases_with_2f_plus_1_quorums() {
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = 2;
        let mut engines = build_cluster(&cfg);
        run(&mut engines, vec![(0, txns(4))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2), "replica {}", e.id());
            assert_eq!(e.executed_txns(), 4);
        }
    }

    #[test]
    fn only_the_primary_accesses_its_trusted_counter() {
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        run(&mut engines, vec![(0, txns(5))]);
        let primary_accesses = engines[0].flexi().enclave().stats().snapshot();
        assert_eq!(primary_accesses.counter_append_fs, 5);
        for e in &engines[1..] {
            assert_eq!(
                e.flexi().enclave().stats().snapshot().total_accesses(),
                0,
                "backup {} must not touch its enclave",
                e.id()
            );
        }
    }

    #[test]
    fn parallel_instances_are_in_flight_simultaneously() {
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = 1;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let mut primary = FlexiBft::new(
            cfg.clone(),
            ReplicaId(0),
            FlexiBft::enclave(ReplicaId(0), AttestationMode::Counting),
            registry,
        );
        let mut out = Outbox::new();
        primary.on_client_request(txns(10), &mut out);
        // All ten proposals go out before any commit, i.e. ten instances are
        // outstanding concurrently (G1).
        assert_eq!(primary.replica().outstanding(), 10);
        assert_eq!(out.broadcasts().len(), 10);
    }

    #[test]
    fn sequential_ablation_proposes_one_instance_at_a_time() {
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Counting);
        let mut cfg = SystemConfig::for_protocol(ProtocolId::OFlexiBft, 1);
        cfg.batch_size = 1;
        let mut primary = FlexiBft::new(
            cfg,
            ReplicaId(0),
            FlexiBft::enclave(ReplicaId(0), AttestationMode::Counting),
            registry,
        );
        assert_eq!(primary.properties().id, ProtocolId::OFlexiBft);
        let mut out = Outbox::new();
        primary.on_client_request(txns(10), &mut out);
        assert_eq!(primary.replica().outstanding(), 1);
        assert_eq!(out.broadcasts().len(), 1);
    }

    #[test]
    fn client_reply_rule_is_f_plus_1() {
        let engines = build_cluster(&FlexiBft::config(2));
        assert_eq!(engines[0].properties().reply_quorum, QuorumRule::FPlusOne);
        assert_eq!(engines[0].properties().phases, 2);
        assert!(engines[0].properties().primary_only_tc);
    }

    #[test]
    fn commit_requires_2f_plus_1_prepares() {
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        // Hand-deliver the proposal to replica 1 and only two Prepare votes:
        // not enough (2f + 1 = 3).
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let digest = match &preprepare {
            Message::PrePrepare { batch, .. } => batch.digest(),
            _ => unreachable!(),
        };
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(0), preprepare, &mut out);
        for voter in [1u32, 2] {
            let mut out = Outbox::new();
            engines[1].on_message(
                ReplicaId(voter),
                Message::Prepare {
                    view: View(0),
                    seq: SeqNum(1),
                    digest,
                    attestation: None,
                },
                &mut out,
            );
        }
        assert_eq!(engines[1].last_executed(), SeqNum(0));
        // The third distinct vote commits.
        let mut out = Outbox::new();
        engines[1].on_message(
            ReplicaId(3),
            Message::Prepare {
                view: View(0),
                seq: SeqNum(1),
                digest,
                attestation: None,
            },
            &mut out,
        );
        assert_eq!(engines[1].last_executed(), SeqNum(1));
        assert_eq!(out.replies().len(), 1);
        assert!(!out.replies()[0].speculative);
    }

    #[test]
    fn prepares_that_overtake_the_preprepare_still_commit() {
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let digest = match &preprepare {
            Message::PrePrepare { batch, .. } => batch.digest(),
            _ => unreachable!(),
        };
        // 2f + 1 Prepares reach replica 1 before the proposal they vote
        // for: the quorum forms with nothing to commit yet.
        for voter in [0u32, 2, 3] {
            let mut out = Outbox::new();
            engines[1].on_message(
                ReplicaId(voter),
                Message::Prepare {
                    view: View(0),
                    seq: SeqNum(1),
                    digest,
                    attestation: None,
                },
                &mut out,
            );
        }
        assert_eq!(engines[1].last_executed(), SeqNum(0));
        // Accepting the late proposal must pick the recorded quorum up.
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(0), preprepare, &mut out);
        assert_eq!(engines[1].last_executed(), SeqNum(1));
        assert_eq!(out.replies().len(), 1);
    }

    #[test]
    fn stable_checkpoints_prune_the_vote_state() {
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = 1;
        cfg.checkpoint_interval = 2;
        let mut engines = build_cluster(&cfg);
        run(&mut engines, vec![(0, txns(10))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(10), "replica {}", e.id());
            let stable = e.flexi.replica.low_water_mark();
            assert!(
                stable > SeqNum(0),
                "replica {} has no stable checkpoint",
                e.id()
            );
            // Only sequences above the stable checkpoint may still be tracked.
            let live = (e.last_executed().0 - stable.0) as usize;
            assert!(e.prepare_votes.tracked_keys() <= live, "replica {}", e.id());
            assert!(e.prepare_sent.len() <= live, "replica {}", e.id());
            assert!(e.committed.len() <= live, "replica {}", e.id());
        }
    }

    #[test]
    fn view_change_preserves_accepted_batches() {
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        run(&mut engines, vec![(0, txns(3))]);
        // Everyone executed 3 batches in view 0. Now the primary goes silent
        // and the backups time out.
        let mut engines: Vec<&mut FlexiBft> = engines.iter_mut().collect();
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
