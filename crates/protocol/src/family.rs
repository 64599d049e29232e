//! The PBFT-family replica engine: the one engine every protocol runs on.
//!
//! Every protocol the paper evaluates follows the same skeleton (§3, §4.2,
//! §8): a primary assigns sequence numbers and broadcasts `PrePrepare`;
//! replicas vote in zero (speculative), one (`Prepare`) or two (`Prepare` +
//! `Commit`) all-to-all phases; batches execute in sequence order; periodic
//! checkpoints truncate state; and a view change replaces a faulty primary.
//! What differs between the protocols is their row of the design table,
//! [`ProtocolStyle`] ([`ProtocolId::style`](flexitrust_types::ProtocolId::style)):
//! the quorum sizes, whether a `Commit` phase exists, whether execution is
//! speculative, and how trusted components are used for each message. The
//! engine copies its row when it is built.
//!
//! # FlexiTrust is two more rows
//!
//! Section 8 of the paper argues that trusted components pay off only when
//! combined with `3f + 1` replicas, and derives a recipe for converting any
//! trust-bft protocol into a *FlexiTrust* protocol:
//!
//! 1. **Restrict `Append`** to the internally-incrementing `AppendF`
//!    ([`flexitrust_trusted::CounterSet::append_f`]) so counter values stay
//!    contiguous and a Byzantine primary cannot open far-future gaps.
//! 2. **Access the trusted component only at the primary**, once per
//!    consensus: backups merely verify the attestation's signature.
//! 3. **Use `2f + 1` quorums over `3f + 1` replicas**, so every quorum
//!    contains an honest replica and equivocation is impossible even without
//!    per-message attestations — restoring client responsiveness (§5),
//!    removing the trusted-logging memory cost, shrinking the rollback
//!    window to one access per consensus (§6) and enabling parallel
//!    consensus invocations (§7).
//!
//! Here the recipe is a change of row — [`PrimaryAttest::AppendF`],
//! [`ReplicaAttest::None`], `2f + 1` quorums, `3f + 1` replicas — so
//! Flexi-BFT (from MinBFT) and Flexi-ZZ (from MinZZ) run on this engine like
//! every baseline and differ from the protocols they derive from in nothing
//! else. The sequential ablations `oFlexi-BFT` / `oFlexi-ZZ` of Figure 6(i)
//! are the same rows with `out_of_order` off, so their proposal window
//! holds one instance.
//!
//! # What the engine implements
//!
//! [`PbftFamilyEngine`] implements the style-dependent part of that skeleton
//! once: the slot table, the `PrePrepare` / `Prepare` / `Commit` phases and
//! their certificates, how each message is attested, the retry timers, and
//! the proofs, re-attestations and rollbacks a view change needs. The
//! style-independent part — client glue, the primary's proposal window and
//! the sequencer that binds its batches, the one execution path that commit
//! and checkpoint state transfer share, the view-change state machine — is
//! [`ReplicaCore`].

use crate::{
    CertificateTracker, ConsensusEngine, Message, Outbox, PreparedProof, ReplicaCore, TimerKind,
};
use flexitrust_crypto::digest_transaction;
use flexitrust_trusted::{AttestKind, Attestation, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{
    Batch, Digest, PrimaryAttest, ProtocolStyle, ReplicaAttest, ReplicaId, SeqNum, StateSnapshot,
    SystemConfig, Transaction, View,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The kind of attestation a proposal under `attest` carries.
fn proposal_kind(attest: PrimaryAttest) -> Option<AttestKind> {
    match attest {
        PrimaryAttest::None => None,
        PrimaryAttest::HostCounter | PrimaryAttest::AppendF => Some(AttestKind::CounterBind),
        PrimaryAttest::Log => Some(AttestKind::LogSlot),
    }
}

/// The proposal this replica accepted for one sequence number in the
/// current view, and how far consensus on it has got.
#[derive(Debug)]
struct SlotState {
    view: View,
    digest: Digest,
    batch: Batch,
    attestation: Option<Attestation>,
    prepared: bool,
    /// Set by a `Commit` certificate (the three-phase protocols).
    committed: bool,
}

/// A configurable PBFT-family replica engine.
pub struct PbftFamilyEngine {
    style: ProtocolStyle,
    core: ReplicaCore,
    registry: Option<EnclaveRegistry>,

    slots: BTreeMap<u64, SlotState>,
    prepare_votes: CertificateTracker<(View, SeqNum, Digest)>,
    commit_votes: CertificateTracker<(View, SeqNum, Digest)>,
    /// Timer tags of the transactions forwarded to the primary on behalf of
    /// a retrying client and not yet seen in a proposal.
    forwarded: BTreeSet<u64>,
}

impl PbftFamilyEngine {
    /// Creates a replica engine.
    ///
    /// `enclave` must be `Some` when the style uses a trusted component;
    /// `registry` must be `Some` when attestations should be verified.
    pub fn new(
        config: impl Into<Arc<SystemConfig>>,
        id: ReplicaId,
        style: ProtocolStyle,
        enclave: Option<SharedEnclave>,
        registry: Option<EnclaveRegistry>,
    ) -> Self {
        let config = config.into();
        let prepare_quorum = config.quorum(style.prepare_quorum_rule);
        let commit_quorum = config.quorum(style.commit_quorum_rule);
        PbftFamilyEngine {
            core: ReplicaCore::with_sequencer(config, id, style.primary_attest, enclave),
            prepare_votes: CertificateTracker::new(prepare_quorum),
            commit_votes: CertificateTracker::new(commit_quorum),
            slots: BTreeMap::new(),
            forwarded: BTreeSet::new(),
            style,
            registry,
        }
    }

    /// Digest of the proposal this replica accepted at `seq` in its current
    /// view, while it holds one.
    pub fn accepted_digest(&self, seq: SeqNum) -> Option<Digest> {
        self.slots.get(&seq.0).map(|slot| slot.digest)
    }

    /// Returns `true` when this replica participates in the failure-free
    /// case (always true except for CheapBFT's passive replicas).
    fn is_active(&self) -> bool {
        if !self.style.active_subset_only {
            return true;
        }
        // CheapBFT keeps replicas 0..f+1 active; the rest stay passive until
        // a fault forces a protocol switch.
        self.core.id().as_usize() <= self.core.config().f
    }

    fn replica_vote_attestation(&self, seq: SeqNum, digest: Digest) -> Option<Attestation> {
        let sequencer = &self.core.sequencer;
        let enclave = sequencer.enclave.as_ref()?;
        match self.style.replica_attest {
            ReplicaAttest::None => None,
            ReplicaAttest::Counter => {
                // trust-bft replicas bind every outgoing vote to their own
                // counter; the counter value is the sequence number being
                // voted on (so out-of-order votes are rejected by the TC,
                // which is the §7 sequentiality constraint).
                enclave.append(sequencer.counter_id, seq.0, digest).ok()
            }
            ReplicaAttest::Log => enclave.log_append(1, None, digest).ok(),
        }
    }

    /// Whether `attestation` is what the primary must staple to its
    /// proposal of `digest` at `seq`: the kind its binding issues, from the
    /// sender's own trusted component, for exactly this sequence number and
    /// digest, and (when a registry is present) carrying a valid enclave
    /// signature. Without the binding a valid attestation for `(k, A)` could
    /// ride on a `PrePrepare` for `(k, B)` — the equivocation the trusted
    /// counter exists to prevent (lines 8–9 of Figures 3 and 4).
    fn verify_attestation(
        &self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        attestation: Option<&Attestation>,
    ) -> bool {
        let Some(kind) = proposal_kind(self.style.primary_attest) else {
            return true;
        };
        attestation.is_some_and(|att| {
            att.host == from
                && att.value == seq.0
                && att.digest == digest
                && att.kind == kind
                && self
                    .registry
                    .as_ref()
                    .is_none_or(|registry| registry.verify(att).is_ok())
        })
    }

    // ------------------------------------------------------------------
    // Backup-side message handling.
    // ------------------------------------------------------------------

    fn on_preprepare(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        batch: Batch,
        attestation: Option<Attestation>,
        out: &mut Outbox,
    ) {
        if view != self.core.view() || from != self.core.primary() || self.core.in_view_change() {
            return;
        }
        if seq <= self.core.low_water_mark() {
            return;
        }
        let digest = batch.digest();
        if !self.verify_attestation(from, seq, digest, attestation.as_ref()) {
            return;
        }
        if self.slots.contains_key(&seq.0) {
            // Already accepted a proposal for this slot in this view.
            return;
        }
        self.slots.insert(
            seq.0,
            SlotState {
                view,
                digest,
                batch: batch.clone(),
                attestation,
                prepared: false,
                committed: false,
            },
        );
        if !self.forwarded.is_empty() {
            self.cancel_forwarded(&batch, out);
        }

        if self.style.speculative {
            // Zyzzyva / MinZZ / Flexi-ZZ: execute immediately and reply
            // speculatively. trust-bft variants (MinZZ) still bind the
            // accepted order to their own trusted counter before replying —
            // the per-message, in-order TC access that §7 identifies as the
            // root cause of sequentiality. The attestation travels with the
            // client reply, so no vote message is broadcast here.
            if self.style.replica_attest != ReplicaAttest::None && !self.core.is_primary() {
                let _ = self.replica_vote_attestation(seq, digest);
            }
            self.core.execute(seq, batch, true, out);
            return;
        }

        if self.is_active() {
            let attestation = self.replica_vote_attestation(seq, digest);
            out.broadcast(Message::Prepare {
                view,
                seq,
                digest,
                attestation,
            });
        }
        // Links are not FIFO across senders: votes can overtake the proposal
        // they vote for. The trackers report a quorum exactly once, so
        // certificates that completed before the proposal arrived are
        // re-evaluated here.
        if self.prepare_votes.is_complete(&(view, seq, digest)) {
            self.on_prepared(seq, digest, out);
        }
        if self.style.use_commit_phase && self.commit_votes.is_complete(&(view, seq, digest)) {
            self.on_committed(seq, digest, out);
        }
    }

    /// Whether a vote for `(view, seq)` is still of interest. At or below
    /// the stable checkpoint the vote state is pruned; a late vote must not
    /// recreate it.
    fn accepts_votes(&self, view: View, seq: SeqNum) -> bool {
        view == self.core.view() && !self.core.in_view_change() && seq > self.core.low_water_mark()
    }

    fn on_prepare(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        digest: Digest,
        out: &mut Outbox,
    ) {
        if !self.style.speculative
            && self.accepts_votes(view, seq)
            && self.prepare_votes.vote((view, seq, digest), from)
        {
            self.on_prepared(seq, digest, out);
        }
    }

    /// A `Prepare` certificate for `digest` at `seq` is complete: once the
    /// matching proposal is accepted too, the slot is prepared — and, in the
    /// two-phase protocols, committed.
    fn on_prepared(&mut self, seq: SeqNum, digest: Digest, out: &mut Outbox) {
        let active = self.is_active();
        let Some(slot) = self.slots.get_mut(&seq.0) else {
            return;
        };
        if slot.digest != digest || slot.prepared {
            return;
        }
        slot.prepared = true;
        if !self.style.use_commit_phase {
            // MinBFT, CheapBFT, Flexi-BFT: prepared == committed.
            let batch = slot.batch.clone();
            self.core.execute(seq, batch, false, out);
        } else if active {
            let view = slot.view;
            let attestation = self.replica_vote_attestation(seq, digest);
            out.broadcast(Message::Commit {
                view,
                seq,
                digest,
                attestation,
            });
        }
    }

    fn on_commit(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        digest: Digest,
        out: &mut Outbox,
    ) {
        if self.style.use_commit_phase
            && self.accepts_votes(view, seq)
            && self.commit_votes.vote((view, seq, digest), from)
        {
            self.on_committed(seq, digest, out);
        }
    }

    /// A `Commit` certificate for `digest` at `seq` is complete.
    fn on_committed(&mut self, seq: SeqNum, digest: Digest, out: &mut Outbox) {
        let Some(slot) = self.slots.get_mut(&seq.0) else {
            return;
        };
        if slot.digest != digest || slot.committed {
            return;
        }
        slot.committed = true;
        let batch = slot.batch.clone();
        self.core.execute(seq, batch, false, out);
    }

    // ------------------------------------------------------------------
    // Client retries.
    // ------------------------------------------------------------------

    /// An unhappy client re-sent `txn`. A backup that forwards it to the
    /// primary arms a timer of its own for it: the proposal that carries the
    /// transaction disarms it, and only an expiry suspects the primary.
    fn on_client_retry(&mut self, txn: Transaction, out: &mut Outbox) {
        let tag = forwarded_tag(&txn);
        let timer = TimerKind::RequestForwarded(tag);
        if self.core.on_client_retry(txn, timer, out) {
            self.forwarded.insert(tag);
        }
    }

    /// Disarms the retry timers of the forwarded transactions `batch`
    /// carries.
    fn cancel_forwarded(&mut self, batch: &Batch, out: &mut Outbox) {
        for txn in batch.txns() {
            let tag = forwarded_tag(txn);
            if self.forwarded.remove(&tag) {
                out.cancel_timer(TimerKind::RequestForwarded(tag));
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints and garbage collection.
    // ------------------------------------------------------------------

    /// Records a checkpoint vote. A checkpoint turned stable past this
    /// replica's frontier drops slots it never executed, whose proposals
    /// will not come again: it asks for the state instead.
    fn on_checkpoint(&mut self, from: ReplicaId, seq: SeqNum, digest: Digest, out: &mut Outbox) {
        if let Some(stable) = self.core.record_checkpoint_vote(from, seq, digest) {
            self.forget_through(stable);
            if stable > self.core.last_executed() {
                self.core.request_checkpoint(out);
            }
        }
    }

    /// Drops the per-sequence state at or below a stable (or installed)
    /// checkpoint.
    fn forget_through(&mut self, stable: SeqNum) {
        self.slots.retain(|s, _| *s > stable.0);
        self.prepare_votes.retain(|(_, s, _)| *s > stable);
        self.commit_votes.retain(|(_, s, _)| *s > stable);
        if let Some(enclave) = &self.core.sequencer.enclave {
            enclave.truncate_logs(stable.0);
        }
    }

    /// Serves a state-transfer request from a recovering replica out of the
    /// slot table.
    fn on_checkpoint_request(&self, from: ReplicaId, last_executed: SeqNum, out: &mut Outbox) {
        let held = self
            .slots
            .iter()
            .map(|(seq, slot)| (SeqNum(*seq), &slot.batch));
        self.core
            .serve_checkpoint_request(from, last_executed, held, out);
    }

    /// Installs a peer's stable checkpoint (crash-recovery rejoin) and
    /// replays the accompanying batches on the normal execution path.
    fn on_checkpoint_state(
        &mut self,
        seq: SeqNum,
        snapshot: &StateSnapshot,
        batches: Vec<(SeqNum, Batch)>,
        out: &mut Outbox,
    ) {
        let speculative = self.style.speculative;
        if self
            .core
            .replay_checkpoint_state(seq, snapshot, batches, speculative, out)
        {
            self.forget_through(seq);
        }
    }

    // ------------------------------------------------------------------
    // View changes: the proofs, quorum and attestations the shared state
    // machine (`ReplicaCore::on_view_change` / `on_new_view`) is given.
    // ------------------------------------------------------------------

    fn start_view_change(&mut self, out: &mut Outbox) {
        let proofs = proofs(&self.slots, &self.prepare_votes, &self.core, &self.style);
        self.core.start_view_change(proofs, out);
    }

    fn view_change_quorum(&self) -> usize {
        // Both trust-bft (f+1) and bft (2f+1) protocols require a quorum of
        // view-change votes matching their prepare quorum.
        self.core.config().quorum(self.style.prepare_quorum_rule)
    }

    fn on_view_change(
        &mut self,
        from: ReplicaId,
        new_view: View,
        last_stable: SeqNum,
        prepared: Vec<PreparedProof>,
        out: &mut Outbox,
    ) {
        let quorum = self.view_change_quorum();
        let (slots, votes, style) = (&self.slots, &self.prepare_votes, &self.style);
        let Some(plan) = self.core.on_view_change(
            from,
            new_view,
            last_stable,
            prepared,
            quorum,
            |core| proofs(slots, votes, core, style),
            out,
        ) else {
            return;
        };
        // This replica is the primary of the new view.
        let sequencer = &mut self.core.sequencer;
        let created = sequencer.take_over(plan.next_seq, plan.stable_seq);
        let proposals: Vec<(SeqNum, Batch, Option<Attestation>)> = plan
            .proposals
            .iter()
            .map(|(seq, batch)| {
                let attestation = sequencer.attestation(*seq, batch.digest());
                (*seq, batch.clone(), attestation)
            })
            .collect();
        plan.announce(proposals.clone(), created, out);
        // The new primary acts on its own NewView like any other replica.
        let self_id = self.core.id();
        self.adopt(self_id, new_view, proposals, out);
    }

    fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: View,
        supporting_votes: usize,
        proposals: Vec<(SeqNum, Batch, Option<Attestation>)>,
        counter_attestation: Option<Attestation>,
        out: &mut Outbox,
    ) {
        if self.style.primary_attest == PrimaryAttest::AppendF
            && !counter_attestation.is_some_and(|att| {
                att.kind == AttestKind::CounterCreate
                    && self
                        .registry
                        .as_ref()
                        .is_none_or(|registry| registry.verify(&att).is_ok())
            })
        {
            return;
        }
        let quorum = self.view_change_quorum();
        if !self.core.on_new_view(from, view, supporting_votes, quorum) {
            return;
        }
        out.cancel_timer(TimerKind::ViewChange);
        self.adopt(from, view, proposals, out);
    }

    /// Enters the new view's history. Speculative execution the
    /// re-proposals disagree with, or do not reach, is rolled back to the
    /// stable checkpoint (§8.3: "may force some replicas to rollback"). Every
    /// slot past the execution frontier belonged to an older view and is
    /// superseded by the re-proposals (or by fresh proposals past them).
    /// Then each re-proposal is treated like a `PrePrepare`.
    fn adopt(
        &mut self,
        from: ReplicaId,
        view: View,
        proposals: Vec<(SeqNum, Batch, Option<Attestation>)>,
        out: &mut Outbox,
    ) {
        if self.style.speculative && self.overshoots(&proposals) {
            self.core.rollback_to_stable();
        }
        let frontier = self.core.last_executed().0;
        self.slots.retain(|s, _| *s <= frontier);
        for (seq, batch, attestation) in proposals {
            if self.core.exec().is_executed(seq) {
                continue;
            }
            self.core.sequencer.skip_past(seq);
            self.on_preprepare(from, view, seq, batch, attestation, out);
        }
    }

    /// Whether this replica executed a slot the re-proposals fill with
    /// another batch, or executed past their end.
    fn overshoots(&self, proposals: &[(SeqNum, Batch, Option<Attestation>)]) -> bool {
        let Some((first, _, _)) = proposals.first() else {
            return false;
        };
        let frontier = self.core.last_executed();
        if frontier < *first {
            return false;
        }
        frontier >= SeqNum(first.0 + proposals.len() as u64)
            || proposals.iter().any(|(seq, batch, _)| {
                self.core.exec().is_executed(*seq)
                    && self
                        .slots
                        .get(&seq.0)
                        .is_some_and(|slot| slot.digest != batch.digest())
            })
    }
}

/// What this replica reports in a `ViewChange`: the slots it executed, for
/// the speculative protocols; every accepted slot, for those without a
/// `Commit` phase (each carries the old primary's counter attestation, so
/// re-proposing it cannot equivocate); otherwise the slots it holds a
/// `Prepare` certificate for.
fn proofs(
    slots: &BTreeMap<u64, SlotState>,
    prepare_votes: &CertificateTracker<(View, SeqNum, Digest)>,
    core: &ReplicaCore,
    style: &ProtocolStyle,
) -> Vec<PreparedProof> {
    slots
        .iter()
        .filter(|(seq, slot)| {
            if style.speculative {
                core.exec().is_executed(SeqNum(**seq))
            } else {
                !style.use_commit_phase || slot.prepared
            }
        })
        .map(|(seq, slot)| PreparedProof {
            view: slot.view,
            seq: SeqNum(*seq),
            digest: slot.digest,
            batch: slot.batch.clone(),
            attestation: slot.attestation.clone(),
            prepare_votes: prepare_votes.count(&(slot.view, SeqNum(*seq), slot.digest)),
        })
        .collect()
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

impl ConsensusEngine for PbftFamilyEngine {
    fn replica(&self) -> &ReplicaCore {
        &self.core
    }

    fn on_client_request(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
        self.core.on_client_request(txns, out);
    }

    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn on_message(&mut self, from: ReplicaId, msg: Message, out: &mut Outbox) {
        if !self.core.config().contains(from) {
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
            Message::Commit {
                view, seq, digest, ..
            } => self.on_commit(from, view, seq, digest, out),
            Message::Checkpoint {
                seq, state_digest, ..
            } => self.on_checkpoint(from, seq, state_digest, out),
            Message::ViewChange {
                new_view,
                last_stable,
                prepared,
            } => self.on_view_change(from, new_view, last_stable, prepared, out),
            Message::NewView {
                view,
                supporting_votes,
                proposals,
                counter_attestation,
            } => self.on_new_view(
                from,
                view,
                supporting_votes,
                proposals,
                counter_attestation,
                out,
            ),
            Message::ClientRetry { txn } => self.on_client_retry(txn, out),
            Message::ForwardRequest { txns } => self.core.enqueue(txns, out),
            Message::CheckpointRequest { last_executed } => {
                self.on_checkpoint_request(from, last_executed, out)
            }
            Message::CheckpointState {
                seq,
                snapshot,
                batches,
            } => self.on_checkpoint_state(seq, &snapshot, batches, out),
        }
    }

    fn on_timer(&mut self, timer: TimerKind, out: &mut Outbox) {
        match timer {
            TimerKind::BatchFlush => self.core.flush_batch(out),
            TimerKind::ViewChange => self.start_view_change(out),
            TimerKind::RequestForwarded(tag) => {
                // The primary never proposed the forwarded transaction:
                // suspect it (Figure 4 view-change trigger).
                if self.forwarded.remove(&tag) {
                    self.start_view_change(out);
                }
            }
            TimerKind::Checkpoint => {
                // Periodic checkpoints are driven off execution boundaries;
                // the timer variant is unused here.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{self, run_cluster_until_quiescent, txns, TestNet};
    use flexitrust_crypto::{make_batch, Signature};
    use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig};
    use flexitrust_types::ProtocolId;

    #[test]
    fn pbft_cluster_commits_and_all_replicas_execute() {
        let mut cluster = testing::cluster(ProtocolId::Pbft, 1, |c| c.batch_size = 2).0;
        run_cluster_until_quiescent(&mut cluster, vec![(0, txns(1..5))], 100);
        for engine in &cluster {
            assert_eq!(engine.last_executed(), SeqNum(2), "replica {}", engine.id());
            assert_eq!(engine.executed_txns(), 4);
        }
    }

    #[test]
    fn minbft_cluster_commits_in_two_phases() {
        let mut cluster = testing::cluster(ProtocolId::MinBft, 1, |c| c.batch_size = 2).0;
        run_cluster_until_quiescent(&mut cluster, vec![(0, txns(1..3))], 100);
        for engine in &cluster {
            assert_eq!(engine.last_executed(), SeqNum(1));
            assert_eq!(engine.executed_txns(), 2);
        }
    }

    #[test]
    fn requests_sent_to_backups_are_forwarded_to_the_primary() {
        let mut cluster = testing::cluster(ProtocolId::Pbft, 1, |c| c.batch_size = 2).0;
        // Client sends to replica 2 (not the primary of view 0).
        run_cluster_until_quiescent(&mut cluster, vec![(2, txns(1..3))], 100);
        for engine in &cluster {
            assert_eq!(engine.executed_txns(), 2);
        }
    }

    #[test]
    fn speculative_style_executes_on_preprepare_without_votes() {
        let mut cluster = testing::cluster(ProtocolId::Zyzzyva, 1, |c| c.batch_size = 2).0;
        let delivered = run_cluster_until_quiescent(&mut cluster, vec![(0, txns(1..3))], 100);
        for engine in &cluster {
            assert_eq!(engine.executed_txns(), 2);
        }
        // One broadcast of PrePrepare to 4 replicas and nothing else on the
        // critical path (plus no Prepare/Commit storm).
        assert!(delivered <= 8, "delivered {delivered} messages");
    }

    #[test]
    fn conflicting_preprepare_for_same_slot_is_ignored() {
        let cfg = SystemConfig::for_protocol(ProtocolId::Pbft, 1);
        let mut engine = PbftFamilyEngine::new(
            cfg.clone(),
            ReplicaId(1),
            ProtocolId::Pbft.style(),
            None,
            None,
        );
        let mut out = Outbox::new();
        let batch_a = make_batch(txns(1..2));
        let batch_b = make_batch(txns(1..3));
        engine.on_message(
            ReplicaId(0),
            Message::PrePrepare {
                view: View(0),
                seq: SeqNum(1),
                batch: batch_a.clone(),
                attestation: None,
            },
            &mut out,
        );
        engine.on_message(
            ReplicaId(0),
            Message::PrePrepare {
                view: View(0),
                seq: SeqNum(1),
                batch: batch_b,
                attestation: None,
            },
            &mut out,
        );
        // Only one Prepare was broadcast, for the first digest.
        let prepares: Vec<_> = out
            .broadcasts()
            .into_iter()
            .filter(|m| m.kind() == "Prepare")
            .collect();
        assert_eq!(prepares.len(), 1);
        match prepares[0] {
            Message::Prepare { digest, .. } => assert_eq!(*digest, batch_a.digest()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn preprepare_from_non_primary_is_rejected() {
        let cfg = SystemConfig::for_protocol(ProtocolId::Pbft, 1);
        let mut engine =
            PbftFamilyEngine::new(cfg, ReplicaId(2), ProtocolId::Pbft.style(), None, None);
        let mut out = Outbox::new();
        engine.on_message(
            ReplicaId(3), // not the primary of view 0
            Message::PrePrepare {
                view: View(0),
                seq: SeqNum(1),
                batch: make_batch(txns(1..2)),
                attestation: None,
            },
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn trust_bft_preprepare_without_attestation_is_rejected() {
        let cfg = SystemConfig::for_protocol(ProtocolId::MinBft, 1);
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let mut engine = PbftFamilyEngine::new(
            cfg,
            ReplicaId(1),
            ProtocolId::MinBft.style(),
            Some(Enclave::shared(EnclaveConfig::counter_only(
                ReplicaId(1),
                AttestationMode::Counting,
            ))),
            Some(registry),
        );
        let mut out = Outbox::new();
        engine.on_message(
            ReplicaId(0),
            Message::PrePrepare {
                view: View(0),
                seq: SeqNum(1),
                batch: make_batch(txns(1..2)),
                attestation: None,
            },
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn trust_bft_backup_binds_the_attestation_to_the_proposal() {
        let cfg = SystemConfig::for_protocol(ProtocolId::MinBft, 1);
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let counter = |id| {
            Enclave::shared(EnclaveConfig::counter_only(
                ReplicaId(id),
                AttestationMode::Counting,
            ))
        };
        let mut backup = PbftFamilyEngine::new(
            cfg,
            ReplicaId(1),
            ProtocolId::MinBft.style(),
            Some(counter(1)),
            Some(registry),
        );
        // A Byzantine primary holds two *valid* attestations from its own
        // trusted counter: (1, A) and (2, A).
        let primary_enclave = counter(0);
        let a = make_batch(txns(1..2));
        let b = make_batch(txns(1..3));
        let for_1_a = primary_enclave
            .append(0, 1, a.digest())
            .expect("attest (1, A)");
        let for_2_a = primary_enclave
            .append(0, 2, a.digest())
            .expect("attest (2, A)");
        let mut propose = |batch: &Batch, attestation: &Attestation| {
            let mut out = Outbox::new();
            backup.on_message(
                ReplicaId(0),
                Message::PrePrepare {
                    view: View(0),
                    seq: SeqNum(1),
                    batch: batch.clone(),
                    attestation: Some(attestation.clone()),
                },
                &mut out,
            );
            out
        };
        // Stapled onto (1, B): issued for another digest.
        assert!(propose(&b, &for_1_a).is_empty());
        // Stapled onto (1, A): issued for another sequence number.
        assert!(propose(&a, &for_2_a).is_empty());
        // The genuine pair is accepted and voted on.
        let out = propose(&a, &for_1_a);
        assert_eq!(out.broadcasts().len(), 1);
        assert_eq!(out.broadcasts()[0].kind(), "Prepare");
    }

    #[test]
    fn forged_flexitrust_attestation_from_the_host_key_is_rejected() {
        // Even in Real mode a Byzantine primary cannot fabricate an
        // attestation with its replica key.
        let cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Real);
        let enclave = EnclaveConfig::counter_only(ReplicaId(1), AttestationMode::Real);
        let mut backup = PbftFamilyEngine::new(
            cfg,
            ReplicaId(1),
            ProtocolId::FlexiBft.style(),
            Some(Enclave::shared(enclave)),
            Some(registry),
        );
        let batch = make_batch(txns(1..2));
        let forged = Attestation {
            host: ReplicaId(0),
            counter: 0,
            value: 1,
            digest: batch.digest(),
            kind: AttestKind::CounterBind,
            signature: Signature::zero(),
        };
        let mut out = Outbox::new();
        backup.on_message(
            ReplicaId(0),
            Message::PrePrepare {
                view: View(0),
                seq: SeqNum(1),
                batch,
                attestation: Some(forged),
            },
            &mut out,
        );
        assert!(out.broadcasts().is_empty());
        assert_eq!(backup.accepted_digest(SeqNum(1)), None);
    }

    #[test]
    fn view_change_replaces_a_silent_primary() {
        let mut cluster = testing::cluster(ProtocolId::Pbft, 1, |c| c.batch_size = 2).0;
        // The primary says nothing; every backup's view-change timer fires.
        let mut net = TestNet::new(cluster.len());
        for backup in 1..cluster.len() {
            net.fire(&mut cluster, backup, TimerKind::ViewChange);
        }
        net.run(&mut cluster, 50);
        // Replica 1 is the primary of view 1; the backups have moved on.
        for engine in cluster.iter().skip(1) {
            assert_eq!(engine.view(), View(1), "replica {}", engine.id());
        }
        assert!(cluster[1].is_primary());
    }

    #[test]
    fn votes_that_overtake_the_proposal_still_commit() {
        for id in [
            ProtocolId::Pbft,
            ProtocolId::MinBft,
            ProtocolId::PbftEa,
            ProtocolId::CheapBft,
            ProtocolId::FlexiBft,
        ] {
            let mut cluster = testing::cluster(id, 1, |c| c.batch_size = 2).0;
            let last = cluster.len() - 1;
            // The last replica's inbox is held back while the others agree.
            let mut net = TestNet::new(cluster.len());
            net.pause(last);
            net.client_request(&mut cluster, 0, txns(1..3));
            net.run(&mut cluster, 100);
            // Every vote reaches it before the proposal they vote for: the
            // certificates complete with nothing to commit yet.
            let (proposals, votes): (Vec<_>, Vec<_>) = net
                .take_inbox(last)
                .into_iter()
                .partition(|(_, msg)| msg.kind() == "PrePrepare");
            assert_eq!(proposals.len(), 1, "{id:?}");
            for (from, msg) in votes.into_iter().chain(proposals) {
                assert_eq!(cluster[last].last_executed(), SeqNum(0), "{id:?}");
                net.deliver(&mut cluster, last, from, msg);
            }
            // Accepting the late proposal must pick the recorded quorums up.
            assert_eq!(cluster[last].last_executed(), SeqNum(1), "{id:?}");
        }
    }

    /// What `replica` sent to `peer` since the net was last quiescent, handed
    /// on to `peer` after it was read.
    fn sent_to(
        net: &mut TestNet,
        cluster: &mut [Box<dyn ConsensusEngine>],
        replica: usize,
        peer: usize,
    ) -> Vec<Message> {
        let mut sent = Vec::new();
        for (from, msg) in net.take_inbox(peer) {
            if from.as_usize() == replica {
                sent.push(msg.clone());
            }
            net.deliver(cluster, peer, from, msg);
        }
        sent
    }

    /// Delivers `replica`'s held-back inbox, and whatever the cluster sends
    /// it in turn, until the net is quiet.
    fn drain(net: &mut TestNet, cluster: &mut [Box<dyn ConsensusEngine>], replica: usize) {
        loop {
            net.run(cluster, 100);
            let inbox = net.take_inbox(replica);
            if inbox.is_empty() {
                return;
            }
            for (from, msg) in inbox {
                net.deliver(cluster, replica, from, msg);
            }
        }
    }

    #[test]
    fn a_checkpoint_stable_past_the_frontier_asks_for_the_state() {
        for id in [ProtocolId::Pbft, ProtocolId::FlexiBft] {
            let mut cluster = testing::cluster(id, 1, |c| {
                c.batch_size = 1;
                c.checkpoint_interval = 2;
            })
            .0;
            let backup = cluster.len() - 1;
            // The others run four slots and two checkpoints without it.
            let mut net = TestNet::new(cluster.len());
            net.pause(backup);
            net.client_request(&mut cluster, 0, txns(1..5));
            net.run(&mut cluster, 100);
            assert_eq!(cluster[0].last_executed(), SeqNum(4), "{id:?}");
            // Their checkpoint votes overtake the primary's proposals: the
            // slots the stable checkpoints cover are gone, and their
            // proposals will be dropped when they come.
            let (proposals, votes): (Vec<_>, Vec<_>) = net
                .take_inbox(backup)
                .into_iter()
                .partition(|(_, msg)| msg.kind() == "PrePrepare");
            assert_eq!(proposals.len(), 4, "{id:?}");
            for (from, msg) in votes {
                net.deliver(&mut cluster, backup, from, msg);
            }
            assert_eq!(cluster[backup].last_executed(), SeqNum(0), "{id:?}");
            // One request per checkpoint turned stable past its frontier.
            let asked = sent_to(&mut net, &mut cluster, backup, 1);
            let request = Message::CheckpointRequest {
                last_executed: SeqNum(0),
            };
            assert_eq!(asked, [request.clone(), request], "{id:?}");
            // The peers answer with their checkpoint at 4; the backup
            // installs one, and the late proposals change nothing.
            net.run(&mut cluster, 100);
            for (from, msg) in net.take_inbox(backup).into_iter().chain(proposals) {
                net.deliver(&mut cluster, backup, from, msg);
            }
            assert_eq!(cluster[backup].last_executed(), SeqNum(4), "{id:?}");
            // It executes the proposals that follow, to the same state.
            net.client_request(&mut cluster, 0, txns(5..9));
            drain(&mut net, &mut cluster, backup);
            for engine in &cluster {
                assert_eq!(engine.last_executed(), SeqNum(8), "{id:?}");
                assert_eq!(engine.state_digest(), cluster[0].state_digest(), "{id:?}");
            }
        }
    }

    #[test]
    fn a_checkpoint_stable_within_the_frontier_asks_for_nothing() {
        for id in [ProtocolId::Pbft, ProtocolId::FlexiBft] {
            let mut cluster = testing::cluster(id, 1, |c| {
                c.batch_size = 1;
                c.checkpoint_interval = 2;
            })
            .0;
            let backup = cluster.len() - 1;
            let mut net = TestNet::new(cluster.len());
            net.pause(backup);
            net.client_request(&mut cluster, 0, txns(1..5));
            net.run(&mut cluster, 100);
            // Proposals and votes first: the backup executes all four
            // slots before any checkpoint turns stable for it.
            let (checkpoints, rest): (Vec<_>, Vec<_>) = net
                .take_inbox(backup)
                .into_iter()
                .partition(|(_, msg)| msg.kind() == "Checkpoint");
            for (from, msg) in rest.into_iter().chain(checkpoints) {
                net.deliver(&mut cluster, backup, from, msg);
            }
            assert_eq!(cluster[backup].last_executed(), SeqNum(4), "{id:?}");
            assert_eq!(
                cluster[backup].replica().low_water_mark(),
                SeqNum(4),
                "{id:?}"
            );
            // Its own votes went out, and no request.
            let sent = sent_to(&mut net, &mut cluster, backup, 1);
            assert!(sent.iter().any(|msg| msg.kind() == "Checkpoint"), "{id:?}");
            assert!(
                sent.iter().all(|msg| msg.kind() != "CheckpointRequest"),
                "{id:?}: {sent:?}"
            );
        }
    }

    #[test]
    fn cheapbft_passive_replicas_do_not_vote() {
        let style = ProtocolId::CheapBft.style();
        let cfg = SystemConfig::for_protocol(ProtocolId::CheapBft, 2); // n = 5, active = 3
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let enclave = Enclave::shared(EnclaveConfig::counter_only(
            ReplicaId(4),
            AttestationMode::Counting,
        ));
        let mut passive = PbftFamilyEngine::new(
            cfg.clone(),
            ReplicaId(4),
            style,
            Some(enclave),
            Some(registry.clone()),
        );
        let primary_enclave = Enclave::shared(EnclaveConfig::counter_only(
            ReplicaId(0),
            AttestationMode::Counting,
        ));
        let batch = make_batch(txns(1..2));
        let att = primary_enclave.append(0, 1, batch.digest()).ok();
        let mut out = Outbox::new();
        passive.on_message(
            ReplicaId(0),
            Message::PrePrepare {
                view: View(0),
                seq: SeqNum(1),
                batch,
                attestation: att,
            },
            &mut out,
        );
        // Passive replica stores the proposal but does not broadcast a vote.
        assert!(out.broadcasts().is_empty());
    }

    #[test]
    fn stable_checkpoints_prune_the_vote_state() {
        for style in [ProtocolId::Pbft.style(), ProtocolId::FlexiBft.style()] {
            let mut cfg = SystemConfig::for_protocol(style.id, 1);
            cfg.batch_size = 1;
            cfg.checkpoint_interval = 2;
            let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
            let mut engines: Vec<PbftFamilyEngine> = (0..cfg.n)
                .map(|i| {
                    let id = ReplicaId(i as u32);
                    let enclave =
                        Enclave::shared(EnclaveConfig::counter_only(id, AttestationMode::Counting));
                    PbftFamilyEngine::new(
                        cfg.clone(),
                        id,
                        style,
                        Some(enclave),
                        Some(registry.clone()),
                    )
                })
                .collect();
            let mut refs: Vec<&mut PbftFamilyEngine> = engines.iter_mut().collect();
            run_cluster_until_quiescent(&mut refs, vec![(0, txns(1..11))], 300);
            for e in &engines {
                let name = format!("{:?} replica {}", style.id, e.id());
                assert_eq!(e.last_executed(), SeqNum(10), "{name}");
                let stable = e.core.low_water_mark();
                assert!(stable > SeqNum(0), "{name} has no stable checkpoint");
                // Only sequences above the stable checkpoint may still be
                // tracked.
                let live = (e.last_executed().0 - stable.0) as usize;
                assert!(e.prepare_votes.tracked_keys() <= live, "{name}");
                assert!(e.commit_votes.tracked_keys() <= live, "{name}");
                assert!(e.slots.len() <= live, "{name}");
            }
        }
    }
}
