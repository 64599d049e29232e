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

use crate::common::FlexiCore;
use flexitrust_crypto::digest_transaction;
use flexitrust_protocol::{
    ConsensusEngine, Message, Outbox, ProtocolProperties, ReplicaCore, TimerKind,
};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{Batch, ProtocolId, ReplicaId, SeqNum, SystemConfig, Transaction, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A Flexi-ZZ replica engine.
pub struct FlexiZz {
    sequential: bool,
    flexi: FlexiCore,
    /// Transactions forwarded to the primary on behalf of a retrying client,
    /// keyed by the timer tag derived from the transaction digest.
    forwarded: BTreeMap<u64, Transaction>,
}

impl FlexiZz {
    /// The default configuration for fault threshold `f` (`n = 3f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::FlexiZz, f)
    }

    /// The counter-only enclave Flexi-ZZ expects at each replica.
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
        let sequential = config.protocol == ProtocolId::OFlexiZz || config.max_in_flight == 1;
        FlexiZz {
            sequential,
            flexi: FlexiCore::new(config, id, enclave, registry),
            forwarded: BTreeMap::new(),
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
        batch: Batch,
        attestation: Option<flexitrust_trusted::Attestation>,
        out: &mut Outbox,
    ) {
        let Some(accepted) = self
            .flexi
            .accept_preprepare(from, view, seq, batch, attestation)
        else {
            return;
        };
        // Cancel any pending forwarded-request timers satisfied by this batch.
        for txn in accepted.batch.txns() {
            let tag = forwarded_tag(txn);
            if self.forwarded.remove(&tag).is_some() {
                out.cancel_timer(TimerKind::RequestForwarded(tag));
            }
        }
        // Execute speculatively, in sequence order (Figure 4, Execute()).
        let executed = self
            .flexi
            .replica
            .commit_batch(seq, accepted.batch, true, out);
        for done in executed {
            self.flexi.replica.maybe_emit_checkpoint(done.seq, out);
            self.flexi.instance_finished(done.seq, out);
        }
    }

    fn on_client_retry(&mut self, txn: Transaction, out: &mut Outbox) {
        // Forwarded requests get a timer of their own: if no PrePrepare for
        // this transaction arrives before it expires, suspect the primary.
        let tag = forwarded_tag(&txn);
        let timer = TimerKind::RequestForwarded(tag);
        let bind = self.flexi.counter.bind();
        if self
            .flexi
            .replica
            .on_client_retry(txn.clone(), timer, bind, out)
        {
            self.forwarded.insert(tag, txn);
        }
    }

    fn adopt_proposals(
        &mut self,
        from: ReplicaId,
        view: View,
        proposals: Vec<(SeqNum, Batch, Option<flexitrust_trusted::Attestation>)>,
        out: &mut Outbox,
    ) {
        if proposals.is_empty() {
            return;
        }
        // Speculatively executed slots that the new view does not re-propose
        // (or re-proposes differently) must be rolled back before adopting
        // the new history (§8.3: "may force some replicas to rollback").
        let first = proposals[0].0;
        if self.flexi.replica.last_executed() >= first {
            let mismatch = proposals.iter().any(|(seq, batch, _)| {
                self.flexi.replica.exec().is_executed(*seq)
                    && self
                        .flexi
                        .accepted(*seq)
                        .map(|a| a.digest != batch.digest())
                        .unwrap_or(false)
            });
            let overshoot =
                self.flexi.replica.last_executed() >= SeqNum(first.0 + proposals.len() as u64);
            if mismatch || overshoot {
                self.flexi.rollback_to_stable();
            }
        }
        for (seq, batch, attestation) in proposals {
            if self.flexi.replica.exec().is_executed(seq) {
                continue;
            }
            self.on_preprepare(from, view, seq, batch, attestation, out);
        }
    }
}

/// Timer tag for a forwarded client transaction.
fn forwarded_tag(txn: &Transaction) -> u64 {
    let digest = digest_transaction(txn);
    u64::from_le_bytes(
        digest.as_bytes()[..8]
            .try_into()
            .expect("digest is 32 bytes"),
    )
}

impl ConsensusEngine for FlexiZz {
    fn replica(&self) -> &ReplicaCore {
        &self.flexi.replica
    }

    fn properties(&self) -> ProtocolProperties {
        ProtocolProperties::for_protocol(if self.sequential {
            ProtocolId::OFlexiZz
        } else {
            ProtocolId::FlexiZz
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
            Message::Prepare { .. } | Message::Commit { .. } => {
                // Flexi-ZZ's common case has no voting phases.
            }
            Message::Checkpoint {
                seq, state_digest, ..
            } => {
                // Everything at or below a stable checkpoint is durable: the
                // replica's journal keeps that state as the rollback point.
                self.flexi.on_checkpoint(from, seq, state_digest);
            }
            Message::ViewChange {
                new_view,
                last_stable,
                prepared,
            } => {
                let self_id = self.flexi.replica.id();
                let reproposed =
                    self.flexi
                        .on_view_change(from, new_view, last_stable, prepared, true, out);
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
            Message::ClientRetry { txn } => self.on_client_retry(txn, out),
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
                self.flexi
                    .install_checkpoint_state(seq, &snapshot, batches, true, out);
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
            TimerKind::RequestForwarded(tag) => {
                // The primary never proposed the forwarded transaction:
                // suspect it (Figure 4 view-change trigger).
                if self.forwarded.remove(&tag).is_some() {
                    self.flexi.start_view_change(true, out);
                }
            }
            TimerKind::ViewChange => self.flexi.start_view_change(true, out),
            TimerKind::Checkpoint => {}
        }
    }
}

/// Builds a full Flexi-ZZ cluster (engine per replica) over counting-mode
/// enclaves; used by tests, examples and the simulator registry.
pub fn build_cluster(config: &SystemConfig) -> Vec<FlexiZz> {
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    (0..config.n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            FlexiZz::new(
                config.clone(),
                id,
                FlexiZz::enclave(id, AttestationMode::Counting),
                registry.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_protocol::testing::{run_cluster_until_quiescent, TestNet};
    use flexitrust_protocol::Action;
    use flexitrust_types::{ClientId, KvOp, QuorumRule, RequestId};

    fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i as u64 + 1),
                    KvOp::Update {
                        key: i as u64,
                        value: vec![7].into(),
                    },
                )
            })
            .collect()
    }

    fn run(engines: &mut [FlexiZz], inject: Vec<(usize, Vec<Transaction>)>) {
        let mut engines: Vec<&mut FlexiZz> = engines.iter_mut().collect();
        run_cluster_until_quiescent(&mut engines, inject, 300);
    }

    #[test]
    fn single_phase_speculative_commit() {
        let mut cfg = FlexiZz::config(1);
        cfg.batch_size = 2;
        let mut engines = build_cluster(&cfg);
        run(&mut engines, vec![(0, txns(4))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2));
            assert_eq!(e.executed_txns(), 4);
        }
    }

    #[test]
    fn replies_are_speculative_and_need_2f_plus_1_at_the_client() {
        let mut cfg = FlexiZz::config(2);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let mut out = Outbox::new();
        engines[3].on_message(ReplicaId(0), preprepare, &mut out);
        assert_eq!(out.replies().len(), 1);
        assert!(out.replies()[0].speculative);
        assert_eq!(
            engines[0].properties().reply_quorum,
            QuorumRule::TwoFPlusOne
        );
        assert_eq!(engines[0].properties().phases, 1);
    }

    #[test]
    fn only_the_primary_accesses_its_trusted_counter() {
        let mut cfg = FlexiZz::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        run(&mut engines, vec![(0, txns(6))]);
        assert_eq!(
            engines[0]
                .flexi()
                .enclave()
                .stats()
                .snapshot()
                .counter_append_fs,
            6
        );
        for e in &engines[1..] {
            assert_eq!(e.flexi().enclave().stats().snapshot().total_accesses(), 0);
        }
    }

    #[test]
    fn fast_path_survives_f_unresponsive_replicas() {
        // With f = 1 (n = 4), one replica never receives anything; the other
        // three still execute and reply — enough for the 2f + 1 = 3 reply
        // rule, unlike MinZZ/Zyzzyva which would need all replicas.
        let mut cfg = FlexiZz::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
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
        let needed = cfg.quorum(QuorumRule::TwoFPlusOne);
        assert!(replies >= needed);
    }

    #[test]
    fn client_retry_is_answered_from_the_reply_cache() {
        let mut cfg = FlexiZz::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        let request = txns(1);
        run(&mut engines, vec![(0, request.clone())]);
        let mut out = Outbox::new();
        engines[2].on_message(
            ReplicaId(1),
            Message::ClientRetry {
                txn: request[0].clone(),
            },
            &mut out,
        );
        assert_eq!(out.replies().len(), 1);
        assert_eq!(out.replies()[0].request, request[0].request());
    }

    #[test]
    fn unserved_client_retry_forwards_to_primary_and_arms_a_timer() {
        let mut cfg = FlexiZz::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        let txn = txns(1).remove(0);
        let mut out = Outbox::new();
        engines[2].on_message(ReplicaId(1), Message::ClientRetry { txn }, &mut out);
        assert_eq!(out.replies().len(), 0);
        assert_eq!(out.sends().len(), 1);
        assert_eq!(*out.sends()[0].0, ReplicaId(0));
        assert!(out.actions().iter().any(|a| matches!(
            a,
            Action::SetTimer {
                timer: TimerKind::RequestForwarded(_),
                ..
            }
        )));
    }

    #[test]
    fn forwarded_request_timeout_triggers_a_view_change_vote() {
        let mut cfg = FlexiZz::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        let txn = txns(1).remove(0);
        let mut out = Outbox::new();
        engines[2].on_message(
            ReplicaId(1),
            Message::ClientRetry { txn: txn.clone() },
            &mut out,
        );
        let tag = out
            .actions()
            .iter()
            .find_map(|a| match a {
                Action::SetTimer {
                    timer: TimerKind::RequestForwarded(t),
                    ..
                } => Some(*t),
                _ => None,
            })
            .unwrap();
        let mut out = Outbox::new();
        engines[2].on_timer(TimerKind::RequestForwarded(tag), &mut out);
        let vc: Vec<_> = out
            .broadcasts()
            .into_iter()
            .filter(|m| m.kind() == "ViewChange")
            .collect();
        assert_eq!(vc.len(), 1);
        assert!(engines[2].replica().in_view_change());
    }

    #[test]
    fn view_change_reproposes_executed_batches_and_preserves_results() {
        let mut cfg = FlexiZz::config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        run(&mut engines, vec![(0, txns(2))]);
        // Primary goes silent; every backup times out and votes.
        let mut engines: Vec<&mut FlexiZz> = engines.iter_mut().collect();
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

    #[test]
    fn overshooting_replica_rolls_back_to_the_stable_state_and_rejoins_the_others() {
        // Replica 3 alone receives proposal 4 and executes it speculatively;
        // boundary 2 turns stable afterwards. The view change the other
        // three complete re-proposes 3 only, so replica 3 must discard 4:
        // back to the state *at* 2, then 3 again, like everyone else.
        let mut cfg = FlexiZz::config(1);
        cfg.batch_size = 1;
        cfg.checkpoint_interval = 2;
        let mut engines = build_cluster(&cfg);
        let mut engines: Vec<&mut FlexiZz> = engines.iter_mut().collect();
        let mut net = TestNet::new(engines.len());
        net.client_request(&mut engines, 0, txns(4));
        for to in 0..engines.len() {
            for (from, msg) in net.take_inbox(to) {
                if to == 3 || msg.seq() != Some(SeqNum(4)) {
                    net.deliver(&mut engines, to, from, msg);
                }
            }
        }
        net.run(&mut engines, 100);
        assert_eq!(engines[3].last_executed(), SeqNum(4));
        assert_eq!(engines[3].replica().low_water_mark(), SeqNum(2));

        net.pause(3);
        for voter in 0..3 {
            net.fire(&mut engines, voter, TimerKind::ViewChange);
        }
        net.run(&mut engines, 100);
        assert_eq!(engines[2].view(), View(1));
        for (from, msg) in net.take_inbox(3) {
            net.deliver(&mut engines, 3, from, msg);
        }
        assert_eq!(engines[3].view(), View(1));
        assert_eq!(engines[3].last_executed(), SeqNum(3));
        assert_eq!(engines[3].state_digest(), engines[2].state_digest());
    }
}
