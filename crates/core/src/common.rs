//! State and behaviour shared by Flexi-BFT and Flexi-ZZ.
//!
//! The replica skeleton the FlexiTrust protocols inherit from PBFT — client
//! glue, the primary's proposal window, checkpoint state transfer and the
//! view-change state machine — lives in `flexitrust_protocol`
//! ([`ReplicaCore`], `viewchange`), shared with the baselines. What is left
//! here is what makes a replica a *FlexiTrust* replica, i.e. every place the
//! trusted component is touched or checked:
//!
//! * [`PrimaryCounter::bind`] — the primary binds each batch to its trusted
//!   counter with `AppendF` (the only access on the common path, §8.1);
//! * [`FlexiCore::accept_preprepare`] — a backup verifies that attestation
//!   and accepts at most one proposal per sequence number per view;
//! * [`FlexiCore::on_view_change`] / [`FlexiCore::on_new_view`] — the new
//!   primary creates a fresh counter with `Create(k)` and re-attests every
//!   re-proposal; backups demand the proof of that creation (§8.2, §8.3);
//! * the table of accepted proposals those steps read and write, lent to the
//!   shared checkpoint-transfer and view-change code.
//!
//! The two engine modules add what differs — the voting phase of Flexi-BFT
//! and the speculative execution + client-retry path of Flexi-ZZ.

use flexitrust_protocol::{Binding, Outbox, PreparedProof, ReplicaCore, TimerKind};
use flexitrust_trusted::{AttestKind, Attestation, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{Batch, Digest, ReplicaId, SeqNum, StateSnapshot, SystemConfig, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A proposal accepted by this replica for one sequence number.
#[derive(Debug, Clone)]
pub struct AcceptedProposal {
    /// The view in which the proposal was accepted.
    pub view: View,
    /// Digest of the accepted batch.
    pub digest: Digest,
    /// The batch itself.
    pub batch: Batch,
    /// The primary's trusted-counter attestation.
    pub attestation: Attestation,
}

/// The trusted counter a replica proposes with when it is primary.
pub struct PrimaryCounter {
    enclave: SharedEnclave,
    /// Identifier of the counter currently in use. A fresh counter is
    /// created after each view change.
    counter_id: u64,
}

impl PrimaryCounter {
    /// The `bind` the shared proposal window and client glue take
    /// (`replica.on_client_request(txns, counter.bind(), out)`, ...).
    ///
    /// This is the *single* place FlexiTrust touches the trusted component:
    /// one `AppendF` per proposed batch, at the primary only (§8.1). The
    /// sequence number is the counter value it returns, so sequence numbers
    /// are contiguous by construction; should the counter be unusable (it is
    /// not for an honest primary) the batch stays queued.
    pub fn bind(&self) -> impl FnMut(&Batch) -> Binding + '_ {
        move |batch| {
            let (seq, attestation) = self
                .enclave
                .append_f(self.counter_id, batch.digest())
                .ok()?;
            Some((SeqNum(seq), Some(attestation)))
        }
    }
}

/// Shared state of a FlexiTrust replica.
pub struct FlexiCore {
    /// Generic replica state (view, execution, checkpoints, reply cache,
    /// proposal window, view-change progress).
    pub replica: ReplicaCore,
    /// The trusted counter behind this replica's proposals.
    pub counter: PrimaryCounter,
    registry: EnclaveRegistry,

    // Accepted proposals by sequence number.
    accepted: BTreeMap<u64, AcceptedProposal>,
}

impl FlexiCore {
    /// Creates the shared FlexiTrust state for replica `id`.
    pub fn new(
        config: impl Into<Arc<SystemConfig>>,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> Self {
        FlexiCore {
            replica: ReplicaCore::new(config, id),
            counter: PrimaryCounter {
                enclave,
                counter_id: 0,
            },
            registry,
            accepted: BTreeMap::new(),
        }
    }

    /// The enclave co-located with this replica.
    ///
    /// Only the primary of the current view ever *accesses* it on the common
    /// path (goal G2 of the paper); backups hold one but leave it idle.
    pub fn enclave(&self) -> &SharedEnclave {
        &self.counter.enclave
    }

    /// The proposal accepted at `seq`, if any.
    pub fn accepted(&self, seq: SeqNum) -> Option<&AcceptedProposal> {
        self.accepted.get(&seq.0)
    }

    /// Marks a consensus instance as no longer outstanding (it executed) and
    /// keeps the proposal pipeline full.
    pub fn instance_finished(&mut self, seq: SeqNum, out: &mut Outbox) {
        self.replica.instance_finished(seq);
        self.replica.try_propose(self.counter.bind(), out);
    }

    // ------------------------------------------------------------------
    // Backup acceptance rule (identical for Flexi-BFT and Flexi-ZZ).
    // ------------------------------------------------------------------

    /// Validates and records a `PrePrepare`. Returns the accepted proposal
    /// when it is fresh and well-formed, `None` otherwise.
    ///
    /// The checks mirror lines 8–9 of Figures 3 and 4 in the paper: the
    /// message must come from the primary of the current view, carry a valid
    /// attestation from that primary's trusted component binding exactly this
    /// sequence number to exactly this batch digest, and be the first
    /// proposal this replica accepts for that sequence number.
    pub fn accept_preprepare(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        batch: Batch,
        attestation: Option<Attestation>,
    ) -> Option<AcceptedProposal> {
        if view != self.replica.view() || self.replica.in_view_change() {
            return None;
        }
        if from != self.replica.primary() {
            return None;
        }
        if seq <= self.replica.low_water_mark() {
            return None;
        }
        let attestation = attestation?;
        if attestation.host != from
            || attestation.value != seq.0
            || attestation.digest != batch.digest()
            || attestation.kind != AttestKind::CounterBind
            || self.registry.verify(&attestation).is_err()
        {
            return None;
        }
        if self.accepted.contains_key(&seq.0) {
            // Already accepted a k-th proposal from this primary.
            return None;
        }
        let proposal = AcceptedProposal {
            view,
            digest: batch.digest(),
            batch,
            attestation,
        };
        self.accepted.insert(seq.0, proposal.clone());
        Some(proposal)
    }

    // ------------------------------------------------------------------
    // Checkpoints.
    // ------------------------------------------------------------------

    /// Records a checkpoint vote and garbage-collects accepted proposals
    /// below the new stable checkpoint. Returns the checkpoint's sequence
    /// number when this vote made it stable, so the engine can prune its
    /// own per-sequence state the same way.
    pub fn on_checkpoint(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        state_digest: Digest,
    ) -> Option<SeqNum> {
        let stable = self
            .replica
            .record_checkpoint_vote(from, seq, state_digest)?;
        self.accepted.retain(|s, _| *s > stable.0);
        Some(stable)
    }

    /// Serves a peer's `CheckpointRequest` out of the accepted proposals.
    pub fn on_checkpoint_request(&self, from: ReplicaId, last_executed: SeqNum, out: &mut Outbox) {
        let held = self
            .accepted
            .iter()
            .map(|(seq, accepted)| (SeqNum(*seq), &accepted.batch));
        self.replica
            .serve_checkpoint_request(from, last_executed, held, out);
    }

    /// Installs a peer's `CheckpointState` and replays its batches. Returns
    /// `true` when the snapshot itself was installed (the caller may need to
    /// reset protocol-specific rollback state). Replayed batches are
    /// executed without re-recording acceptance — their attestations stayed
    /// with the serving peer — and without touching the proposal window.
    pub fn install_checkpoint_state(
        &mut self,
        seq: SeqNum,
        snapshot: &StateSnapshot,
        batches: Vec<(SeqNum, Batch)>,
        speculative: bool,
        out: &mut Outbox,
    ) -> bool {
        let installed = self.replica.replay_checkpoint_state(
            seq,
            snapshot,
            batches,
            speculative,
            |_, _, _, _| {},
            out,
        );
        if installed {
            self.accepted.retain(|s, _| *s > seq.0);
        }
        installed
    }

    /// Discards speculative execution past the stable checkpoint (Flexi-ZZ,
    /// when a new view drops slots this replica executed), together with the
    /// proposals accepted for the discarded slots: the new view's
    /// re-proposals for them must be accepted afresh.
    pub fn rollback_to_stable(&mut self) {
        self.replica.rollback_to_stable();
        let frontier = self.replica.last_executed();
        self.accepted.retain(|s, _| *s <= frontier.0);
    }

    // ------------------------------------------------------------------
    // View changes (§8.2 / §8.3): the trusted-component half. The join
    // rule, vote collection and `NewView` guards are `ReplicaCore`'s.
    // ------------------------------------------------------------------

    /// Suspects the primary: votes for the next view with this replica's
    /// proofs (see [`Self::proofs_from_accepted`] for `executed_only`).
    pub fn start_view_change(&mut self, executed_only: bool, out: &mut Outbox) {
        let proofs = self.proofs_from_accepted(executed_only);
        self.replica.start_view_change(proofs, out);
    }

    /// Handles a `ViewChange` message.
    ///
    /// When it completes the `2f + 1` votes that make this replica the new
    /// primary, creates a fresh trusted counter positioned at the lowest
    /// re-proposed sequence number (the `Create(k)` function of §8.1), so
    /// sequence numbers are preserved across views (§8.3), and re-proposes
    /// everything with fresh attestations. Returns the proposals that this
    /// replica (as the new primary) re-issued, so the caller can also apply
    /// them locally.
    pub fn on_view_change(
        &mut self,
        from: ReplicaId,
        new_view: View,
        last_stable: SeqNum,
        prepared: Vec<PreparedProof>,
        executed_only: bool,
        out: &mut Outbox,
    ) -> Vec<(SeqNum, Batch, Option<Attestation>)> {
        let quorum = self.replica.config().large_quorum();
        let accepted = &self.accepted;
        let Some(plan) = self.replica.on_view_change(
            from,
            new_view,
            last_stable,
            prepared,
            quorum,
            |replica| proofs_from(accepted, replica, executed_only),
            out,
        ) else {
            return Vec::new();
        };
        let enclave = &self.counter.enclave;
        let (counter_id, counter_attestation) = enclave.create_counter(plan.stable_seq.0);
        self.counter.counter_id = counter_id;
        let mut proposals = Vec::with_capacity(plan.proposals.len());
        for (seq, batch) in &plan.proposals {
            match enclave.append_f(counter_id, batch.digest()) {
                Ok((value, attestation)) => {
                    debug_assert_eq!(value, seq.0, "re-proposals must stay contiguous");
                    proposals.push((*seq, batch.clone(), Some(attestation)));
                }
                Err(_) => proposals.push((*seq, batch.clone(), None)),
            }
        }
        plan.announce(proposals.clone(), Some(counter_attestation), out);
        proposals
    }

    /// Validates a `NewView` announcement — it must prove the creation of
    /// the new primary's fresh counter — and, if acceptable, enters the new
    /// view and returns the proposals to adopt.
    pub fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: View,
        supporting_votes: usize,
        proposals: Vec<(SeqNum, Batch, Option<Attestation>)>,
        counter_attestation: Option<Attestation>,
        out: &mut Outbox,
    ) -> Vec<(SeqNum, Batch, Option<Attestation>)> {
        let counter_created = counter_attestation.is_some_and(|att| {
            att.kind == AttestKind::CounterCreate && self.registry.verify(&att).is_ok()
        });
        let quorum = self.replica.config().large_quorum();
        if !counter_created
            || !self
                .replica
                .on_new_view(from, view, supporting_votes, quorum)
        {
            return Vec::new();
        }
        // Proposals from the old view are superseded by the new primary's
        // re-proposals.
        self.accepted
            .retain(|s, _| SeqNum(*s) <= self.replica.last_executed());
        out.cancel_timer(TimerKind::ViewChange);
        proposals
    }

    /// Builds prepared proofs from the accepted-proposal table; `executed_only`
    /// restricts them to slots this replica has executed (Flexi-ZZ) instead
    /// of every accepted slot (Flexi-BFT).
    pub fn proofs_from_accepted(&self, executed_only: bool) -> Vec<PreparedProof> {
        proofs_from(&self.accepted, &self.replica, executed_only)
    }
}

fn proofs_from(
    accepted: &BTreeMap<u64, AcceptedProposal>,
    replica: &ReplicaCore,
    executed_only: bool,
) -> Vec<PreparedProof> {
    accepted
        .iter()
        .filter(|(seq, _)| !executed_only || replica.exec().is_executed(SeqNum(**seq)))
        .map(|(seq, accepted)| PreparedProof {
            view: accepted.view,
            seq: SeqNum(*seq),
            digest: accepted.digest,
            batch: accepted.batch.clone(),
            attestation: Some(accepted.attestation.clone()),
            prepare_votes: 0,
        })
        .collect()
}

/// Builds one `FlexiCore` per replica of a deployment, sharing a counting
/// enclave registry; primarily a convenience for tests and harnesses.
pub fn build_cores(config: &SystemConfig) -> Vec<FlexiCore> {
    use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig};
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    (0..config.n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            let enclave =
                Enclave::shared(EnclaveConfig::counter_only(id, AttestationMode::Counting));
            FlexiCore::new(config.clone(), id, enclave, registry.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_crypto::make_batch;
    use flexitrust_protocol::Message;
    use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig};
    use flexitrust_types::{ClientId, KvOp, ProtocolId, RequestId, Transaction};

    fn config() -> SystemConfig {
        let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        cfg.batch_size = 1;
        cfg
    }

    fn txn(i: u64) -> Transaction {
        Transaction::new(ClientId(1), RequestId(i), KvOp::Read { key: i })
    }

    fn propose(core: &mut FlexiCore, txns: Vec<Transaction>, out: &mut Outbox) {
        core.replica
            .on_client_request(txns, core.counter.bind(), out);
    }

    #[test]
    fn primary_proposes_with_contiguous_counter_values() {
        let mut cores = build_cores(&config());
        let mut out = Outbox::new();
        propose(&mut cores[0], vec![txn(1), txn(2), txn(3)], &mut out);
        let seqs: Vec<u64> = out
            .broadcasts()
            .iter()
            .filter_map(|m| m.seq().map(|s| s.0))
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(cores[0].enclave().stats().snapshot().counter_append_fs, 3);
        assert_eq!(cores[0].replica.outstanding(), 3);
    }

    #[test]
    fn backups_never_touch_their_enclave_on_acceptance() {
        let mut cores = build_cores(&config());
        let mut out = Outbox::new();
        propose(&mut cores[0], vec![txn(1)], &mut out);
        let Message::PrePrepare {
            view,
            seq,
            batch,
            attestation,
        } = out.broadcasts()[0].clone()
        else {
            panic!("expected a PrePrepare");
        };
        let accepted = cores[1].accept_preprepare(ReplicaId(0), view, seq, batch, attestation);
        assert!(accepted.is_some());
        assert_eq!(cores[1].enclave().stats().snapshot().total_accesses(), 0);
    }

    #[test]
    fn acceptance_rejects_bad_attestations() {
        let cfg = config();
        let mut cores = build_cores(&cfg);
        let mut out = Outbox::new();
        propose(&mut cores[0], vec![txn(1)], &mut out);
        let Message::PrePrepare {
            view,
            seq,
            batch,
            attestation,
        } = out.broadcasts()[0].clone()
        else {
            panic!("expected a PrePrepare");
        };
        let att = attestation.unwrap();

        // Missing attestation.
        assert!(cores[1]
            .accept_preprepare(ReplicaId(0), view, seq, batch.clone(), None)
            .is_none());
        // Attestation bound to a different sequence number.
        let mut wrong_seq = att.clone();
        wrong_seq.value = 9;
        assert!(cores[1]
            .accept_preprepare(
                ReplicaId(0),
                view,
                SeqNum(9),
                batch.clone(),
                Some(wrong_seq)
            )
            .is_none());
        // Attestation bound to a different batch.
        let other_batch = make_batch(vec![txn(2)]);
        assert!(cores[1]
            .accept_preprepare(ReplicaId(0), view, seq, other_batch, Some(att.clone()))
            .is_none());
        // From a replica that is not the primary.
        assert!(cores[2]
            .accept_preprepare(ReplicaId(1), view, seq, batch.clone(), Some(att.clone()))
            .is_none());
        // The genuine proposal is still acceptable exactly once.
        assert!(cores[1]
            .accept_preprepare(ReplicaId(0), view, seq, batch.clone(), Some(att.clone()))
            .is_some());
        assert!(cores[1]
            .accept_preprepare(ReplicaId(0), view, seq, batch, Some(att))
            .is_none());
    }

    #[test]
    fn forged_attestation_from_host_key_is_rejected() {
        // Even in Real mode a Byzantine primary cannot fabricate an
        // attestation with its replica key; FlexiCore must reject it.
        let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        cfg.batch_size = 1;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Real);
        let enclave = Enclave::shared(EnclaveConfig::counter_only(
            ReplicaId(1),
            AttestationMode::Real,
        ));
        let mut backup = FlexiCore::new(cfg, ReplicaId(1), enclave, registry);
        let batch = make_batch(vec![txn(1)]);
        let forged = Attestation {
            host: ReplicaId(0),
            counter: 0,
            value: 1,
            digest: batch.digest(),
            kind: AttestKind::CounterBind,
            signature: flexitrust_crypto::Signature::zero(),
        };
        assert!(backup
            .accept_preprepare(ReplicaId(0), View(0), SeqNum(1), batch, Some(forged))
            .is_none());
    }

    #[test]
    fn view_change_creates_a_fresh_counter_and_reproposes_contiguously() {
        let cfg = config();
        let mut cores = build_cores(&cfg);
        // The primary proposed three batches; replica 1 accepted them all.
        let mut out = Outbox::new();
        propose(&mut cores[0], vec![txn(1), txn(2), txn(3)], &mut out);
        let preprepares: Vec<Message> = out.broadcasts().into_iter().cloned().collect();
        for msg in &preprepares {
            if let Message::PrePrepare {
                view,
                seq,
                batch,
                attestation,
            } = msg.clone()
            {
                cores[1].accept_preprepare(ReplicaId(0), view, seq, batch, attestation);
            }
        }
        // Replica 1 is the primary of view 1; feed it 2f + 1 ViewChange
        // messages (one carries the accepted proposals).
        let proofs = cores[1].proofs_from_accepted(false);
        assert_eq!(proofs.len(), 3);
        let mut out = Outbox::new();
        let mut reproposed = Vec::new();
        for (i, sender) in [0u32, 2, 3].iter().enumerate() {
            let prepared = if i == 0 { proofs.clone() } else { Vec::new() };
            reproposed = cores[1].on_view_change(
                ReplicaId(*sender),
                View(1),
                SeqNum(0),
                prepared,
                false,
                &mut out,
            );
        }
        assert_eq!(reproposed.len(), 3);
        let seqs: Vec<u64> = reproposed.iter().map(|(s, _, _)| s.0).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(reproposed.iter().all(|(_, _, a)| a.is_some()));
        assert_eq!(cores[1].replica.view(), View(1));
        assert!(cores[1].replica.is_primary());
        // The NewView carries a counter-creation attestation.
        let new_view = out
            .broadcasts()
            .into_iter()
            .find(|m| m.kind() == "NewView")
            .cloned()
            .unwrap();
        match new_view {
            Message::NewView {
                counter_attestation,
                supporting_votes,
                ..
            } => {
                assert!(counter_attestation.is_some());
                assert_eq!(supporting_votes, 3);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn new_view_without_counter_attestation_is_rejected() {
        let cfg = config();
        let mut cores = build_cores(&cfg);
        let mut out = Outbox::new();
        let adopted = cores[2].on_new_view(
            ReplicaId(1),
            View(1),
            3,
            vec![(SeqNum(1), Batch::noop(1), None)],
            None,
            &mut out,
        );
        assert!(adopted.is_empty());
        assert_eq!(cores[2].replica.view(), View(0));
    }
}
