//! State and behaviour shared by Flexi-BFT and Flexi-ZZ.
//!
//! Both FlexiTrust protocols share the same proposal path (the primary binds
//! each batch to its trusted counter with `AppendF` and broadcasts the
//! attested `PrePrepare`), the same acceptance rule at backups (verify the
//! attestation, accept at most one proposal per sequence number per view),
//! the same checkpointing, and the same view-change skeleton (2f + 1
//! `ViewChange` messages, a fresh trusted counter created with `Create`, and
//! contiguous re-proposals). [`FlexiCore`] implements those pieces; the two
//! engine modules add what differs — the voting phase of Flexi-BFT and the
//! speculative execution + client-retry path of Flexi-ZZ.

use flexitrust_protocol::{
    CertificateTracker, Message, NewViewPlanner, Outbox, PreparedProof, ReplicaCore, TimerKind,
};
use flexitrust_trusted::{AttestKind, Attestation, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{
    Batch, Digest, ReplicaId, SeqNum, StateSnapshot, SystemConfig, Transaction, View,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// Shared state of a FlexiTrust replica.
pub struct FlexiCore {
    /// Generic replica state (view, execution, checkpoints, reply cache).
    pub replica: ReplicaCore,
    enclave: SharedEnclave,
    registry: EnclaveRegistry,
    /// Identifier of the trusted counter currently used by this replica when
    /// it acts as primary. A fresh counter is created after each view change.
    counter_id: u64,

    // Primary-side proposal state.
    pending_batches: VecDeque<Batch>,
    outstanding: BTreeSet<u64>,

    // Accepted proposals by sequence number.
    accepted: BTreeMap<u64, AcceptedProposal>,

    // View-change state.
    in_view_change: bool,
    highest_vc_vote: View,
    planners: BTreeMap<u64, NewViewPlanner>,
    join_votes: CertificateTracker<View>,
    view_changes_completed: u64,
}

impl FlexiCore {
    /// Creates the shared FlexiTrust state for replica `id`.
    pub fn new(
        config: impl Into<Arc<SystemConfig>>,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> Self {
        let config = config.into();
        let join_quorum = config.small_quorum();
        FlexiCore {
            replica: ReplicaCore::new(config, id),
            enclave,
            registry,
            counter_id: 0,
            pending_batches: VecDeque::new(),
            outstanding: BTreeSet::new(),
            accepted: BTreeMap::new(),
            in_view_change: false,
            highest_vc_vote: View::ZERO,
            planners: BTreeMap::new(),
            join_votes: CertificateTracker::new(join_quorum),
            view_changes_completed: 0,
        }
    }

    /// The enclave co-located with this replica.
    ///
    /// Only the primary of the current view ever *accesses* it on the common
    /// path (goal G2 of the paper); backups hold one but leave it idle.
    pub fn enclave(&self) -> &SharedEnclave {
        &self.enclave
    }

    /// Whether this replica currently considers a view change in progress.
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// Number of completed view changes observed by this replica.
    pub fn view_changes_completed(&self) -> u64 {
        self.view_changes_completed
    }

    /// The proposal accepted at `seq`, if any.
    pub fn accepted(&self, seq: SeqNum) -> Option<&AcceptedProposal> {
        self.accepted.get(&seq.0)
    }

    /// Number of consensus instances this primary currently has in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    // ------------------------------------------------------------------
    // Primary proposal path (identical for Flexi-BFT and Flexi-ZZ).
    // ------------------------------------------------------------------

    /// Queues client transactions for proposal (primary) and emits a
    /// `BatchFlush` timer when a partial batch remains.
    pub fn enqueue(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
        let full = self.replica.batcher_mut().push(txns);
        self.pending_batches.extend(full);
        if self.replica.batcher_mut().pending_len() > 0 {
            out.set_timer(TimerKind::BatchFlush, 500);
        }
        self.try_propose(out);
    }

    /// Flushes a partial batch (on the `BatchFlush` timer).
    pub fn flush_batch(&mut self, out: &mut Outbox) {
        if let Some(batch) = self.replica.batcher_mut().flush() {
            self.pending_batches.push_back(batch);
        }
        self.try_propose(out);
    }

    /// Proposes as many pending batches as the in-flight window allows.
    ///
    /// This is the *single* place FlexiTrust touches the trusted component:
    /// one `AppendF` per proposed batch, at the primary only (§8.1). The
    /// returned sequence number is the counter value, so sequence numbers
    /// are contiguous by construction.
    pub fn try_propose(&mut self, out: &mut Outbox) {
        if !self.replica.is_primary() || self.in_view_change {
            return;
        }
        let max_in_flight = self.replica.config().max_in_flight;
        while self.outstanding.len() < max_in_flight {
            let Some(batch) = self.pending_batches.pop_front() else {
                return;
            };
            let Ok((seq, attestation)) = self.enclave.append_f(self.counter_id, batch.digest())
            else {
                // The counter is unusable (should not happen for an honest
                // primary); drop the batch back and stop proposing.
                self.pending_batches.push_front(batch);
                return;
            };
            self.outstanding.insert(seq);
            out.broadcast(Message::PrePrepare {
                view: self.replica.view(),
                seq: SeqNum(seq),
                batch,
                attestation: Some(attestation),
            });
        }
    }

    /// Marks a consensus instance as no longer outstanding (it executed) and
    /// keeps the proposal pipeline full.
    pub fn instance_finished(&mut self, seq: SeqNum, out: &mut Outbox) {
        self.outstanding.remove(&seq.0);
        self.try_propose(out);
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
        if view != self.replica.view() || self.in_view_change {
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

    /// Serves a peer's `CheckpointRequest`: when this replica's stable
    /// checkpoint is past the requester's execution frontier, replies with
    /// the boundary snapshot plus every accepted-and-executed batch after
    /// it, so the requester can install the checkpoint and replay forward.
    pub fn on_checkpoint_request(
        &mut self,
        from: ReplicaId,
        last_executed: SeqNum,
        out: &mut Outbox,
    ) {
        let Some((seq, snapshot)) = self.replica.stable_checkpoint_snapshot(last_executed) else {
            return;
        };
        let frontier = self.replica.last_executed();
        let batches: Vec<(SeqNum, Batch)> = self
            .accepted
            .range(seq.0 + 1..)
            .filter(|(s, _)| SeqNum(**s) <= frontier)
            .map(|(s, accepted)| (SeqNum(*s), accepted.batch.clone()))
            .collect();
        out.send(
            from,
            Message::CheckpointState {
                seq,
                snapshot,
                batches,
            },
        );
    }

    /// Installs a peer's `CheckpointState` (the recovery rejoin path):
    /// adopts the snapshot when it is ahead of this replica, then replays
    /// the carried batches in order, emitting replies / checkpoints exactly
    /// as normal execution would. Returns `true` when the snapshot itself
    /// was installed (the caller may need to reset protocol-specific
    /// rollback state). Replayed batches are executed without re-recording
    /// acceptance — their attestations stayed with the serving peer.
    pub fn install_checkpoint_state(
        &mut self,
        seq: SeqNum,
        snapshot: &StateSnapshot,
        batches: Vec<(SeqNum, Batch)>,
        speculative: bool,
        out: &mut Outbox,
    ) -> bool {
        let installed = self.replica.install_checkpoint(seq, snapshot);
        if installed {
            self.accepted.retain(|s, _| *s > seq.0);
        }
        for (batch_seq, batch) in batches {
            if batch_seq <= self.replica.last_executed() {
                continue;
            }
            let executed = self
                .replica
                .commit_batch(batch_seq, batch, speculative, out);
            for done in executed {
                self.replica.maybe_emit_checkpoint(done.seq, out);
            }
        }
        installed
    }

    // ------------------------------------------------------------------
    // View changes (§8.2 / §8.3).
    // ------------------------------------------------------------------

    /// Broadcasts a `ViewChange` for the next view, carrying the supplied
    /// prepared/executed proofs.
    pub fn start_view_change(&mut self, prepared: Vec<PreparedProof>, out: &mut Outbox) {
        let target = self.replica.view().next();
        if target <= self.highest_vc_vote {
            return;
        }
        self.highest_vc_vote = target;
        self.in_view_change = true;
        out.broadcast(Message::ViewChange {
            new_view: target,
            last_stable: self.replica.low_water_mark(),
            prepared,
        });
        out.set_timer(TimerKind::ViewChange, self.replica.config().view_timeout_us);
    }

    /// Handles a `ViewChange` message.
    ///
    /// Every replica joins a view change once `f + 1` distinct replicas have
    /// demanded it; the designated new primary additionally gathers `2f + 1`
    /// votes, creates a fresh trusted counter positioned at the lowest
    /// re-proposed sequence number (the `Create(k)` function of §8.1), and
    /// re-proposes everything with fresh attestations. Returns the proposals
    /// that this replica (as the new primary) re-issued, so the caller can
    /// also apply them locally.
    #[allow(clippy::too_many_arguments)]
    pub fn on_view_change(
        &mut self,
        from: ReplicaId,
        new_view: View,
        last_stable: SeqNum,
        prepared: Vec<PreparedProof>,
        own_proofs: impl FnOnce(&Self) -> Vec<PreparedProof>,
        out: &mut Outbox,
    ) -> Vec<(SeqNum, Batch, Option<Attestation>)> {
        if new_view <= self.replica.view() {
            return Vec::new();
        }
        // Join rule (f + 1 demands ⇒ join).
        self.join_votes.vote(new_view, from);
        if self.join_votes.count(&new_view) >= self.replica.config().small_quorum()
            && new_view > self.highest_vc_vote
        {
            self.highest_vc_vote = new_view;
            self.in_view_change = true;
            let proofs = own_proofs(self);
            out.broadcast(Message::ViewChange {
                new_view,
                last_stable: self.replica.low_water_mark(),
                prepared: proofs,
            });
        }
        // Only the designated primary of `new_view` assembles the NewView.
        if new_view.primary(self.replica.config().n) != self.replica.id() {
            return Vec::new();
        }
        let quorum = self.replica.config().large_quorum();
        let planner = self
            .planners
            .entry(new_view.0)
            .or_insert_with(|| NewViewPlanner::new(new_view, quorum));
        let Some(plan) = planner.record_view_change(from, last_stable, prepared) else {
            return Vec::new();
        };
        // Become the primary of the new view.
        self.replica.enter_view(new_view);
        self.in_view_change = false;
        self.view_changes_completed += 1;
        // Create a fresh counter whose next AppendF value is the first
        // re-proposed sequence number, so sequence numbers are preserved
        // across views (§8.3).
        let (counter_id, counter_attestation) = self.enclave.create_counter(plan.stable_seq.0);
        self.counter_id = counter_id;
        let mut proposals = Vec::with_capacity(plan.proposals.len());
        for (seq, batch) in &plan.proposals {
            match self.enclave.append_f(self.counter_id, batch.digest()) {
                Ok((value, attestation)) => {
                    debug_assert_eq!(value, seq.0, "re-proposals must stay contiguous");
                    proposals.push((*seq, batch.clone(), Some(attestation)));
                }
                Err(_) => proposals.push((*seq, batch.clone(), None)),
            }
        }
        out.broadcast(Message::NewView {
            view: new_view,
            supporting_votes: plan.supporting_votes,
            proposals: proposals.clone(),
            counter_attestation: Some(counter_attestation),
        });
        out.cancel_timer(TimerKind::ViewChange);
        proposals
    }

    /// Validates a `NewView` announcement and, if acceptable, enters the new
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
        let already_there = view == self.replica.view() && !self.in_view_change;
        if view < self.replica.view() || already_there {
            return Vec::new();
        }
        if from != view.primary(self.replica.config().n) {
            return Vec::new();
        }
        if supporting_votes < self.replica.config().large_quorum() {
            return Vec::new();
        }
        if let Some(att) = &counter_attestation {
            if self.registry.verify(att).is_err() || att.kind != AttestKind::CounterCreate {
                return Vec::new();
            }
        } else {
            return Vec::new();
        }
        self.replica.enter_view(view);
        self.in_view_change = false;
        self.view_changes_completed += 1;
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
        self.accepted
            .iter()
            .filter(|(seq, _)| !executed_only || self.replica.exec().is_executed(SeqNum(**seq)))
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
    use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig};
    use flexitrust_types::{ClientId, KvOp, ProtocolId, RequestId};

    fn config() -> SystemConfig {
        let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        cfg.batch_size = 1;
        cfg
    }

    fn txn(i: u64) -> Transaction {
        Transaction::new(ClientId(1), RequestId(i), KvOp::Read { key: i })
    }

    #[test]
    fn primary_proposes_with_contiguous_counter_values() {
        let mut cores = build_cores(&config());
        let mut out = Outbox::new();
        cores[0].enqueue(vec![txn(1), txn(2), txn(3)], &mut out);
        let seqs: Vec<u64> = out
            .broadcasts()
            .iter()
            .filter_map(|m| m.seq().map(|s| s.0))
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(cores[0].enclave().stats().snapshot().counter_append_fs, 3);
        assert_eq!(cores[0].outstanding(), 3);
    }

    #[test]
    fn backups_never_touch_their_enclave_on_acceptance() {
        let mut cores = build_cores(&config());
        let mut out = Outbox::new();
        cores[0].enqueue(vec![txn(1)], &mut out);
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
        cores[0].enqueue(vec![txn(1)], &mut out);
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
        cores[0].enqueue(vec![txn(1), txn(2), txn(3)], &mut out);
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
                |core| core.proofs_from_accepted(false),
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
