//! The PBFT-family replica engine: the one engine every protocol runs on.
//!
//! Every protocol the paper evaluates follows the same skeleton (§3, §4.2,
//! §8): a primary assigns sequence numbers and broadcasts `PrePrepare`;
//! replicas vote in zero (speculative), one (`Prepare`) or two (`Prepare` +
//! `Commit`) all-to-all phases; batches execute in sequence order; periodic
//! checkpoints truncate state; and a view change replaces a faulty primary.
//! What differs between the protocols is captured by [`ProtocolStyle`]: the
//! quorum sizes, whether a `Commit` phase exists, whether execution is
//! speculative, and how trusted components are used for each message.
//! FlexiTrust (`flexitrust_core`) is two more styles: the primary's counter
//! picks the sequence number with `AppendF`, and no backup touches its own.
//!
//! [`PbftFamilyEngine`] implements the style-dependent part of that skeleton
//! once: the slot table, the `PrePrepare` / `Prepare` / `Commit` phases and
//! their certificates, how each message is attested, the retry timers, and
//! the proofs, re-attestations and rollbacks a view change needs. The
//! style-independent part — client glue, the primary's proposal window,
//! checkpoint state transfer, the view-change state machine — is
//! `flexitrust_protocol`'s [`ReplicaCore`]. The per-protocol modules in this
//! crate instantiate the engine with the appropriate style.

use flexitrust_crypto::digest_transaction;
use flexitrust_protocol::{
    Binding, CertificateTracker, ConsensusEngine, Message, Outbox, PreparedProof,
    ProtocolProperties, ReplicaCore, TimerKind,
};
use flexitrust_trusted::{AttestKind, Attestation, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{
    Batch, Digest, ProtocolId, QuorumRule, ReplicaId, SeqNum, StateSnapshot, SystemConfig,
    Transaction, View,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the primary binds a batch to a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimaryAttest {
    /// No trusted component (plain BFT).
    None,
    /// trust-bft trusted counter: the primary supplies the sequence number
    /// and the counter attests the binding (MinBFT, MinZZ, CheapBFT).
    HostCounter,
    /// trust-bft trusted log: the proposal is appended to the primary's
    /// pre-prepare log (PBFT-EA, OPBFT-EA).
    Log,
    /// FlexiTrust `AppendF`: the primary's trusted counter increments itself
    /// and its value *is* the sequence number, so sequence numbers are
    /// contiguous by construction — one access per consensus, at the
    /// primary only (§8.1). A new primary proves the creation of its fresh
    /// counter in the `NewView` (Flexi-BFT, Flexi-ZZ).
    AppendF,
}

impl PrimaryAttest {
    /// The kind of attestation a proposal under this binding carries.
    fn kind(self) -> Option<AttestKind> {
        match self {
            PrimaryAttest::None => None,
            PrimaryAttest::HostCounter | PrimaryAttest::AppendF => Some(AttestKind::CounterBind),
            PrimaryAttest::Log => Some(AttestKind::LogSlot),
        }
    }
}

/// How non-primary replicas attest their own votes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaAttest {
    /// Votes are plain signed messages (PBFT, Zyzzyva — and FlexiTrust,
    /// whose replicas never touch their trusted components).
    None,
    /// Every outgoing vote is bound to the replica's trusted counter
    /// (MinBFT, MinZZ, CheapBFT).
    Counter,
    /// Every outgoing vote is appended to the replica's trusted log
    /// (PBFT-EA, OPBFT-EA).
    Log,
}

/// The per-protocol parameters of the PBFT-family skeleton.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolStyle {
    /// Which protocol this style realises.
    pub id: ProtocolId,
    /// Whether the protocol has a `Commit` phase after `Prepare`.
    pub use_commit_phase: bool,
    /// Matching `Prepare` votes needed to mark a batch prepared.
    pub prepare_quorum_rule: QuorumRule,
    /// Matching `Commit` votes needed to mark a batch committed
    /// (ignored when there is no commit phase).
    pub commit_quorum_rule: QuorumRule,
    /// Whether replicas execute speculatively on `PrePrepare` (Zyzzyva,
    /// MinZZ, Flexi-ZZ) instead of waiting for a quorum.
    pub speculative: bool,
    /// How the primary uses its trusted component per proposal.
    pub primary_attest: PrimaryAttest,
    /// How other replicas use their trusted components per vote.
    pub replica_attest: ReplicaAttest,
    /// Only the first `f + 1` replicas participate in the failure-free case
    /// (CheapBFT's active/passive split).
    pub active_subset_only: bool,
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

/// How this replica, when primary, binds a batch to a sequence number: it
/// picks the next number itself — or, under `AppendF`, lets its trusted
/// counter pick it — and has its trusted component (when the style uses
/// one) attest the pair.
struct Sequencer {
    next_seq: u64,
    /// Trusted counter identifier used by the current primary (a new counter
    /// is created after each view change).
    counter_id: u64,
    enclave: Option<SharedEnclave>,
    attest: PrimaryAttest,
}

impl Sequencer {
    fn attestation(&self, seq: SeqNum, digest: Digest) -> Option<Attestation> {
        let enclave = self.enclave.as_ref()?;
        match self.attest {
            PrimaryAttest::None => None,
            PrimaryAttest::HostCounter => enclave.append(self.counter_id, seq.0, digest).ok(),
            PrimaryAttest::Log => enclave.log_append(0, Some(seq.0), digest).ok(),
            PrimaryAttest::AppendF => {
                let (value, attestation) = enclave.append_f(self.counter_id, digest).ok()?;
                debug_assert_eq!(value, seq.0, "re-proposals must stay contiguous");
                Some(attestation)
            }
        }
    }

    /// The `bind` the shared proposal window and client glue take. Should
    /// an `AppendF` counter be unusable (it is not for an honest primary)
    /// the batch stays queued.
    fn bind(&mut self) -> impl FnMut(&Batch) -> Binding + '_ {
        move |batch| {
            if self.attest == PrimaryAttest::AppendF {
                let enclave = self.enclave.as_ref()?;
                let (seq, attestation) = enclave.append_f(self.counter_id, batch.digest()).ok()?;
                return Some((SeqNum(seq), Some(attestation)));
            }
            let seq = SeqNum(self.next_seq);
            self.next_seq += 1;
            Some((seq, self.attestation(seq, batch.digest())))
        }
    }
}

/// A configurable PBFT-family replica engine.
pub struct PbftFamilyEngine {
    style: ProtocolStyle,
    core: ReplicaCore,
    sequencer: Sequencer,
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
            core: ReplicaCore::new(config, id),
            prepare_votes: CertificateTracker::new(prepare_quorum),
            commit_votes: CertificateTracker::new(commit_quorum),
            slots: BTreeMap::new(),
            forwarded: BTreeSet::new(),
            sequencer: Sequencer {
                next_seq: 1,
                counter_id: 0,
                enclave,
                attest: style.primary_attest,
            },
            style,
            registry,
        }
    }

    /// The style this engine was built with.
    pub fn style(&self) -> &ProtocolStyle {
        &self.style
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
        let enclave = self.sequencer.enclave.as_ref()?;
        match self.style.replica_attest {
            ReplicaAttest::None => None,
            ReplicaAttest::Counter => {
                // trust-bft replicas bind every outgoing vote to their own
                // counter; the counter value is the sequence number being
                // voted on (so out-of-order votes are rejected by the TC,
                // which is the §7 sequentiality constraint).
                enclave
                    .append(self.sequencer.counter_id, seq.0, digest)
                    .ok()
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
        let Some(kind) = self.style.primary_attest.kind() else {
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
            self.execute(seq, batch, true, out);
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
            self.execute(seq, batch, false, out);
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
        self.execute(seq, batch, false, out);
    }

    /// Executes `batch` at `seq` (and whatever parked successors it
    /// releases), and refills the primary's proposal window after each
    /// executed batch.
    fn execute(&mut self, seq: SeqNum, batch: Batch, speculative: bool, out: &mut Outbox) {
        let executed = self.core.commit_batch(seq, batch, speculative, out);
        for done in &executed {
            self.core.maybe_emit_checkpoint(done.seq, out);
            self.core.instance_finished(done.seq);
            self.core.try_propose(self.sequencer.bind(), out);
        }
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
        if self
            .core
            .on_client_retry(txn, timer, self.sequencer.bind(), out)
        {
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

    fn on_checkpoint(&mut self, from: ReplicaId, seq: SeqNum, state_digest: Digest) {
        if let Some(stable) = self.core.record_checkpoint_vote(from, seq, state_digest) {
            self.forget_through(stable);
        }
    }

    /// Drops the per-sequence state at or below a stable (or installed)
    /// checkpoint.
    fn forget_through(&mut self, stable: SeqNum) {
        self.slots.retain(|s, _| *s > stable.0);
        self.prepare_votes.retain(|(_, s, _)| *s > stable);
        self.commit_votes.retain(|(_, s, _)| *s > stable);
        if let Some(enclave) = &self.sequencer.enclave {
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
    /// replays the accompanying batches; as on the normal execution path,
    /// each replayed batch moves this replica's own sequence counter past it
    /// and frees its slot of the proposal window.
    fn on_checkpoint_state(
        &mut self,
        seq: SeqNum,
        snapshot: &StateSnapshot,
        batches: Vec<(SeqNum, Batch)>,
        out: &mut Outbox,
    ) {
        let sequencer = &mut self.sequencer;
        let installed = self.core.replay_checkpoint_state(
            seq,
            snapshot,
            batches,
            self.style.speculative,
            |core, batch_seq, executed, out| {
                sequencer.next_seq = sequencer.next_seq.max(batch_seq.0 + 1);
                for done in executed {
                    core.instance_finished(done.seq);
                }
                if !executed.is_empty() {
                    core.try_propose(sequencer.bind(), out);
                }
            },
            out,
        );
        if installed {
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
        self.sequencer.next_seq = plan.next_seq.0;
        // Counter-based primaries create a fresh counter positioned at the
        // stable checkpoint, so re-proposals are attested from the lowest
        // re-proposed sequence number on (§8.1 Create); FlexiTrust backups
        // demand the proof of that creation (§8.2, §8.3).
        let mut created = None;
        if let (PrimaryAttest::HostCounter | PrimaryAttest::AppendF, Some(enclave)) =
            (self.style.primary_attest, &self.sequencer.enclave)
        {
            let (counter_id, attestation) = enclave.create_counter(plan.stable_seq.0);
            self.sequencer.counter_id = counter_id;
            created = (self.style.primary_attest == PrimaryAttest::AppendF).then_some(attestation);
        }
        let proposals: Vec<(SeqNum, Batch, Option<Attestation>)> = plan
            .proposals
            .iter()
            .map(|(seq, batch)| {
                let attestation = self.sequencer.attestation(*seq, batch.digest());
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
            self.sequencer.next_seq = self.sequencer.next_seq.max(seq.0 + 1);
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

    fn properties(&self) -> ProtocolProperties {
        ProtocolProperties::for_protocol(self.style.id)
    }

    fn on_client_request(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
        self.core
            .on_client_request(txns, self.sequencer.bind(), out);
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
            } => self.on_checkpoint(from, seq, state_digest),
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
            Message::ForwardRequest { txns } => self.core.enqueue(txns, self.sequencer.bind(), out),
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
            TimerKind::BatchFlush => self.core.flush_batch(self.sequencer.bind(), out),
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
    use flexitrust_protocol::testing::{run_cluster_until_quiescent, TestNet};
    use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig};
    use flexitrust_types::{ClientId, KvOp, RequestId};

    fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i as u64 + 1),
                    KvOp::Update {
                        key: i as u64,
                        value: vec![1].into(),
                    },
                )
            })
            .collect()
    }

    fn pbft_style() -> ProtocolStyle {
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

    fn minbft_style() -> ProtocolStyle {
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

    fn flexi_bft_style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::FlexiBft,
            use_commit_phase: false,
            prepare_quorum_rule: QuorumRule::TwoFPlusOne,
            commit_quorum_rule: QuorumRule::TwoFPlusOne,
            speculative: false,
            primary_attest: PrimaryAttest::AppendF,
            replica_attest: ReplicaAttest::None,
            active_subset_only: false,
        }
    }

    fn cluster(style: ProtocolStyle, f: usize) -> Vec<Box<dyn ConsensusEngine>> {
        let mut cfg = SystemConfig::for_protocol(style.id, f);
        cfg.batch_size = 2;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        (0..cfg.n)
            .map(|i| {
                let enclave = if style.primary_attest == PrimaryAttest::None {
                    None
                } else {
                    Some(Enclave::shared(EnclaveConfig::log_based(
                        ReplicaId(i as u32),
                        AttestationMode::Counting,
                    )))
                };
                Box::new(PbftFamilyEngine::new(
                    cfg.clone(),
                    ReplicaId(i as u32),
                    style,
                    enclave,
                    Some(registry.clone()),
                )) as Box<dyn ConsensusEngine>
            })
            .collect()
    }

    #[test]
    fn pbft_cluster_commits_and_all_replicas_execute() {
        let mut cluster = cluster(pbft_style(), 1);
        run_cluster_until_quiescent(&mut cluster, vec![(0, txns(4))], 100);
        for engine in &cluster {
            assert_eq!(engine.last_executed(), SeqNum(2), "replica {}", engine.id());
            assert_eq!(engine.executed_txns(), 4);
        }
    }

    #[test]
    fn minbft_cluster_commits_in_two_phases() {
        let mut cluster = cluster(minbft_style(), 1);
        run_cluster_until_quiescent(&mut cluster, vec![(0, txns(2))], 100);
        for engine in &cluster {
            assert_eq!(engine.last_executed(), SeqNum(1));
            assert_eq!(engine.executed_txns(), 2);
        }
    }

    #[test]
    fn requests_sent_to_backups_are_forwarded_to_the_primary() {
        let mut cluster = cluster(pbft_style(), 1);
        // Client sends to replica 2 (not the primary of view 0).
        run_cluster_until_quiescent(&mut cluster, vec![(2, txns(2))], 100);
        for engine in &cluster {
            assert_eq!(engine.executed_txns(), 2);
        }
    }

    #[test]
    fn speculative_style_executes_on_preprepare_without_votes() {
        let style = ProtocolStyle {
            id: ProtocolId::Zyzzyva,
            speculative: true,
            use_commit_phase: false,
            ..pbft_style()
        };
        let mut cluster = cluster(style, 1);
        let delivered = run_cluster_until_quiescent(&mut cluster, vec![(0, txns(2))], 100);
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
        let mut engine = PbftFamilyEngine::new(cfg.clone(), ReplicaId(1), pbft_style(), None, None);
        let mut out = Outbox::new();
        let batch_a = flexitrust_crypto::make_batch(txns(1));
        let batch_b = flexitrust_crypto::make_batch(txns(2));
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
        let mut engine = PbftFamilyEngine::new(cfg, ReplicaId(2), pbft_style(), None, None);
        let mut out = Outbox::new();
        engine.on_message(
            ReplicaId(3), // not the primary of view 0
            Message::PrePrepare {
                view: View(0),
                seq: SeqNum(1),
                batch: flexitrust_crypto::make_batch(txns(1)),
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
            minbft_style(),
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
                batch: flexitrust_crypto::make_batch(txns(1)),
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
            minbft_style(),
            Some(counter(1)),
            Some(registry),
        );
        // A Byzantine primary holds two *valid* attestations from its own
        // trusted counter: (1, A) and (2, A).
        let primary_enclave = counter(0);
        let a = flexitrust_crypto::make_batch(txns(1));
        let b = flexitrust_crypto::make_batch(txns(2));
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
    fn view_change_replaces_a_silent_primary() {
        let mut cluster = cluster(pbft_style(), 1);
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
        use crate::{CheapBft, MinBft, PbftEa};
        for style in [
            pbft_style(),
            MinBft::style(),
            PbftEa::style(),
            CheapBft::style(),
            flexi_bft_style(),
        ] {
            let mut cluster = cluster(style, 1);
            let last = cluster.len() - 1;
            // The last replica's inbox is held back while the others agree.
            let mut net = TestNet::new(cluster.len());
            net.pause(last);
            net.client_request(&mut cluster, 0, txns(2));
            net.run(&mut cluster, 100);
            // Every vote reaches it before the proposal they vote for: the
            // certificates complete with nothing to commit yet.
            let (proposals, votes): (Vec<_>, Vec<_>) = net
                .take_inbox(last)
                .into_iter()
                .partition(|(_, msg)| msg.kind() == "PrePrepare");
            assert_eq!(proposals.len(), 1, "{:?}", style.id);
            for (from, msg) in votes.into_iter().chain(proposals) {
                assert_eq!(cluster[last].last_executed(), SeqNum(0), "{:?}", style.id);
                net.deliver(&mut cluster, last, from, msg);
            }
            // Accepting the late proposal must pick the recorded quorums up.
            assert_eq!(cluster[last].last_executed(), SeqNum(1), "{:?}", style.id);
        }
    }

    #[test]
    fn cheapbft_passive_replicas_do_not_vote() {
        let style = ProtocolStyle {
            id: ProtocolId::CheapBft,
            active_subset_only: true,
            ..minbft_style()
        };
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
        let batch = flexitrust_crypto::make_batch(txns(1));
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
        for style in [pbft_style(), flexi_bft_style()] {
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
            run_cluster_until_quiescent(&mut refs, vec![(0, txns(10))], 300);
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
