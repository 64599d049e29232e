//! The shared PBFT-family replica engine.
//!
//! Every baseline the paper evaluates follows the same skeleton (§3, §4.2):
//! a primary assigns sequence numbers and broadcasts `PrePrepare`; replicas
//! vote in one (`Prepare`) or two (`Prepare` + `Commit`) all-to-all phases;
//! batches execute in sequence order; periodic checkpoints truncate state;
//! and a view change replaces a faulty primary. What differs between the
//! protocols is captured by [`ProtocolStyle`]: the quorum sizes, whether a
//! `Commit` phase exists, whether execution is speculative, and how trusted
//! components are used for each message.
//!
//! [`PbftFamilyEngine`] implements that skeleton once. The per-protocol
//! modules in this crate instantiate it with the appropriate style, and the
//! unit/integration tests drive clusters of these engines directly (no
//! network) to check safety and the §5–§7 behaviours.

use flexitrust_protocol::{
    Action, CertificateTracker, ConsensusEngine, Message, NewViewPlanner, Outbox, PreparedProof,
    ProtocolProperties, ReplicaCore, TimerKind,
};
use flexitrust_trusted::{Attestation, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{
    Batch, Digest, ProtocolId, QuorumRule, ReplicaId, SeqNum, SystemConfig, Transaction, View,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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
    /// MinZZ) instead of waiting for a quorum.
    pub speculative: bool,
    /// How the primary uses its trusted component per proposal.
    pub primary_attest: PrimaryAttest,
    /// How other replicas use their trusted components per vote.
    pub replica_attest: ReplicaAttest,
    /// Only the first `f + 1` replicas participate in the failure-free case
    /// (CheapBFT's active/passive split).
    pub active_subset_only: bool,
}

/// Internal per-slot consensus state.
#[derive(Debug, Default)]
struct SlotState {
    batch: Option<Batch>,
    digest: Option<Digest>,
    view: View,
    attestation: Option<Attestation>,
    prepared: bool,
    committed: bool,
    prepare_sent: bool,
    commit_sent: bool,
}

/// A configurable PBFT-family replica engine.
pub struct PbftFamilyEngine {
    style: ProtocolStyle,
    core: ReplicaCore,
    enclave: Option<SharedEnclave>,
    registry: Option<EnclaveRegistry>,

    slots: BTreeMap<u64, SlotState>,
    prepare_votes: CertificateTracker<(View, SeqNum, Digest)>,
    commit_votes: CertificateTracker<(View, SeqNum, Digest)>,

    // Primary-side proposal state.
    pending_batches: VecDeque<Batch>,
    next_seq: u64,
    my_outstanding: BTreeSet<u64>,
    /// Trusted counter identifier used by the current primary (a new counter
    /// is created after each view change).
    counter_id: u64,

    // View-change state.
    in_view_change: bool,
    highest_vc_vote: View,
    planners: BTreeMap<u64, NewViewPlanner>,
    join_votes: CertificateTracker<View>,
    view_changes_completed: u64,
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
        let join_quorum = config.small_quorum();
        PbftFamilyEngine {
            core: ReplicaCore::new(config, id),
            prepare_votes: CertificateTracker::new(prepare_quorum),
            commit_votes: CertificateTracker::new(commit_quorum),
            slots: BTreeMap::new(),
            pending_batches: VecDeque::new(),
            next_seq: 1,
            my_outstanding: BTreeSet::new(),
            counter_id: 0,
            in_view_change: false,
            highest_vc_vote: View::ZERO,
            planners: BTreeMap::new(),
            join_votes: CertificateTracker::new(join_quorum),
            view_changes_completed: 0,
            style,
            enclave,
            registry,
        }
    }

    /// The style this engine was built with.
    pub fn style(&self) -> &ProtocolStyle {
        &self.style
    }

    /// Shared replica state (view, execution progress, checkpoints).
    pub fn core(&self) -> &ReplicaCore {
        &self.core
    }

    /// Number of view changes this replica has completed.
    pub fn view_changes_completed(&self) -> u64 {
        self.view_changes_completed
    }

    /// Whether this replica currently believes a view change is in progress.
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
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

    fn batch_flush_delay_us(&self) -> u64 {
        // Flush partially filled batches quickly so low client counts still
        // make progress; the value only matters for latency at low load.
        500
    }

    // ------------------------------------------------------------------
    // Primary-side proposal path.
    // ------------------------------------------------------------------

    fn enqueue_batches(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
        let full = self.core.batcher_mut().push(txns);
        self.pending_batches.extend(full);
        if self.core.batcher_mut().pending_len() > 0 {
            out.set_timer(TimerKind::BatchFlush, self.batch_flush_delay_us());
        }
        self.try_propose(out);
    }

    fn try_propose(&mut self, out: &mut Outbox) {
        if !self.core.is_primary() || self.in_view_change {
            return;
        }
        let max_in_flight = self.core.config().max_in_flight;
        while self.my_outstanding.len() < max_in_flight {
            let Some(batch) = self.pending_batches.pop_front() else {
                return;
            };
            let seq = SeqNum(self.next_seq);
            self.next_seq += 1;
            let attestation = self.primary_attestation(seq, batch.digest());
            self.my_outstanding.insert(seq.0);
            out.broadcast(Message::PrePrepare {
                view: self.core.view(),
                seq,
                batch,
                attestation,
            });
        }
    }

    fn primary_attestation(&self, seq: SeqNum, digest: Digest) -> Option<Attestation> {
        let enclave = self.enclave.as_ref()?;
        match self.style.primary_attest {
            PrimaryAttest::None => None,
            PrimaryAttest::HostCounter => enclave.append(self.counter_id, seq.0, digest).ok(),
            PrimaryAttest::Log => enclave.log_append(0, Some(seq.0), digest).ok(),
        }
    }

    fn replica_vote_attestation(&self, seq: SeqNum, digest: Digest) -> Option<Attestation> {
        let enclave = self.enclave.as_ref()?;
        match self.style.replica_attest {
            ReplicaAttest::None => None,
            ReplicaAttest::Counter => {
                // trust-bft replicas bind every outgoing vote to their own
                // counter; the counter value is the sequence number being
                // voted on (so out-of-order votes are rejected by the TC,
                // which is the §7 sequentiality constraint).
                enclave.append(self.counter_id, seq.0, digest).ok()
            }
            ReplicaAttest::Log => enclave.log_append(1, None, digest).ok(),
        }
    }

    /// Whether `attestation` is what a trust-bft primary must staple to its
    /// proposal of `digest` at `seq`: issued by the sender's own trusted
    /// component for exactly this sequence number and digest, and (when a
    /// registry is present) carrying a valid enclave signature. Without the
    /// binding a valid attestation for `(k, A)` could ride on a `PrePrepare`
    /// for `(k, B)` — the equivocation the trusted counter exists to prevent.
    fn verify_attestation(
        &self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        attestation: &Option<Attestation>,
    ) -> bool {
        if self.style.primary_attest == PrimaryAttest::None {
            return true;
        }
        let Some(att) = attestation else {
            return false;
        };
        att.host == from
            && att.value == seq.0
            && att.digest == digest
            && self
                .registry
                .as_ref()
                .is_none_or(|registry| registry.verify(att).is_ok())
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
        if view != self.core.view() || from != self.core.primary() || self.in_view_change {
            return;
        }
        if seq <= self.core.low_water_mark() {
            return;
        }
        let digest = batch.digest();
        if !self.verify_attestation(from, seq, digest, &attestation) {
            return;
        }
        let slot = self.slots.entry(seq.0).or_default();
        if slot.batch.is_some() {
            // Already accepted a proposal for this slot in this view.
            return;
        }
        slot.batch = Some(batch.clone());
        slot.digest = Some(digest);
        slot.view = view;
        slot.attestation = attestation;

        if self.style.speculative {
            // Zyzzyva / MinZZ: execute immediately and reply speculatively.
            // trust-bft variants (MinZZ) still bind the accepted order to
            // their own trusted counter before replying — the per-message,
            // in-order TC access that §7 identifies as the root cause of
            // sequentiality. The attestation travels with the client reply,
            // so no vote message is broadcast here.
            if self.style.replica_attest != ReplicaAttest::None && !self.core.is_primary() {
                let _ = self.replica_vote_attestation(seq, digest);
            }
            self.execute_slot(seq, batch, true, out);
            return;
        }

        if self.is_active()
            && !self
                .slots
                .get(&seq.0)
                .map(|s| s.prepare_sent)
                .unwrap_or(false)
        {
            let vote_attestation = self.replica_vote_attestation(seq, digest);
            if let Some(slot) = self.slots.get_mut(&seq.0) {
                slot.prepare_sent = true;
            }
            out.broadcast(Message::Prepare {
                view,
                seq,
                digest,
                attestation: vote_attestation,
            });
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
        if view != self.core.view() || self.in_view_change {
            return;
        }
        let became_quorum = self.prepare_votes.vote((view, seq, digest), from);
        if !became_quorum {
            return;
        }
        let digest_matches = self
            .slots
            .get(&seq.0)
            .map(|s| s.digest == Some(digest))
            .unwrap_or(false);
        if !digest_matches {
            return;
        }
        if let Some(slot) = self.slots.get_mut(&seq.0) {
            slot.prepared = true;
        }
        if self.style.use_commit_phase {
            let already_sent = self
                .slots
                .get(&seq.0)
                .map(|s| s.commit_sent)
                .unwrap_or(true);
            if self.is_active() && !already_sent {
                if let Some(slot) = self.slots.get_mut(&seq.0) {
                    slot.commit_sent = true;
                }
                let attestation = self.replica_vote_attestation(seq, digest);
                out.broadcast(Message::Commit {
                    view,
                    seq,
                    digest,
                    attestation,
                });
            }
        } else {
            // Two-phase protocols (MinBFT, CheapBFT): prepared == committed.
            self.commit_slot(seq, out);
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
        if view != self.core.view() || self.in_view_change || !self.style.use_commit_phase {
            return;
        }
        let became_quorum = self.commit_votes.vote((view, seq, digest), from);
        if !became_quorum {
            return;
        }
        let matches = self
            .slots
            .get(&seq.0)
            .map(|s| s.digest == Some(digest))
            .unwrap_or(false);
        if matches {
            self.commit_slot(seq, out);
        }
    }

    fn commit_slot(&mut self, seq: SeqNum, out: &mut Outbox) {
        let Some(slot) = self.slots.get_mut(&seq.0) else {
            return;
        };
        if slot.committed {
            return;
        }
        slot.committed = true;
        let Some(batch) = slot.batch.clone() else {
            return;
        };
        self.execute_slot(seq, batch, false, out);
    }

    fn execute_slot(&mut self, seq: SeqNum, batch: Batch, speculative: bool, out: &mut Outbox) {
        let executed = self.core.commit_batch(seq, batch, speculative, out);
        for done in &executed {
            self.core.maybe_emit_checkpoint(done.seq, out);
            self.my_outstanding.remove(&done.seq.0);
        }
        if !executed.is_empty() {
            self.try_propose(out);
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints and garbage collection.
    // ------------------------------------------------------------------

    fn on_checkpoint(&mut self, from: ReplicaId, seq: SeqNum, state_digest: Digest) {
        if let Some(stable) = self.core.record_checkpoint_vote(from, seq, state_digest) {
            let lwm = stable.0;
            self.slots.retain(|s, _| *s > lwm);
            self.prepare_votes.retain(|(_, s, _)| s.0 > lwm);
            self.commit_votes.retain(|(_, s, _)| s.0 > lwm);
            if let Some(enclave) = &self.enclave {
                enclave.truncate_logs(lwm);
            }
        }
    }

    /// Serves a state-transfer request from a recovering replica: the latest
    /// stable checkpoint snapshot plus every batch this replica holds and has
    /// executed above it, so the joiner can replay up to our frontier.
    fn on_checkpoint_request(&mut self, from: ReplicaId, last_executed: SeqNum, out: &mut Outbox) {
        let Some((seq, snapshot)) = self.core.stable_checkpoint_snapshot(last_executed) else {
            return;
        };
        let frontier = self.core.last_executed();
        let batches: Vec<(SeqNum, Batch)> = self
            .slots
            .range(seq.0 + 1..)
            .filter(|(s, _)| SeqNum(**s) <= frontier)
            .filter_map(|(s, slot)| Some((SeqNum(*s), slot.batch.clone()?)))
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

    /// Installs a peer's stable checkpoint (crash-recovery rejoin), then
    /// replays the accompanying batches through the normal execution path.
    fn on_checkpoint_state(
        &mut self,
        seq: SeqNum,
        snapshot: &flexitrust_types::StateSnapshot,
        batches: Vec<(SeqNum, Batch)>,
        out: &mut Outbox,
    ) {
        if self.core.install_checkpoint(seq, snapshot) {
            self.slots.retain(|s, _| *s > seq.0);
            self.prepare_votes.retain(|(_, s, _)| s.0 > seq.0);
            self.commit_votes.retain(|(_, s, _)| s.0 > seq.0);
            if let Some(enclave) = &self.enclave {
                enclave.truncate_logs(seq.0);
            }
        }
        let speculative = self.style.speculative;
        for (batch_seq, batch) in batches {
            if batch_seq <= self.core.last_executed() {
                continue;
            }
            self.next_seq = self.next_seq.max(batch_seq.0 + 1);
            self.execute_slot(batch_seq, batch, speculative, out);
        }
    }

    // ------------------------------------------------------------------
    // View changes.
    // ------------------------------------------------------------------

    fn prepared_proofs(&self) -> Vec<PreparedProof> {
        self.slots
            .iter()
            .filter_map(|(seq, slot)| {
                let relevant = if self.style.speculative {
                    // Speculative protocols report every slot they executed.
                    self.core.exec().is_executed(SeqNum(*seq))
                } else {
                    slot.prepared
                };
                if !relevant {
                    return None;
                }
                Some(PreparedProof {
                    view: slot.view,
                    seq: SeqNum(*seq),
                    digest: slot.digest?,
                    batch: slot.batch.clone()?,
                    attestation: slot.attestation.clone(),
                    prepare_votes: self.prepare_votes.count(&(
                        slot.view,
                        SeqNum(*seq),
                        slot.digest?,
                    )),
                })
            })
            .collect()
    }

    fn start_view_change(&mut self, out: &mut Outbox) {
        let target = self.core.view().next();
        if target <= self.highest_vc_vote {
            return;
        }
        self.highest_vc_vote = target;
        self.in_view_change = true;
        out.broadcast(Message::ViewChange {
            new_view: target,
            last_stable: self.core.low_water_mark(),
            prepared: self.prepared_proofs(),
        });
        // Re-arm the timer: if the view change does not complete, move on to
        // the next view.
        out.set_timer(TimerKind::ViewChange, self.core.config().view_timeout_us);
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
        if new_view <= self.core.view() {
            return;
        }
        // Join rule: once f + 1 distinct replicas demand a view change, an
        // honest replica joins it even if its own timer has not fired yet
        // (otherwise Byzantine replicas alone could never force one, and
        // honest stragglers would hold the system back).
        let join_quorum = self.core.config().small_quorum();
        self.join_votes.vote(new_view, from);
        if self.join_votes.count(&new_view) >= join_quorum && new_view > self.highest_vc_vote {
            self.highest_vc_vote = new_view;
            self.in_view_change = true;
            out.broadcast(Message::ViewChange {
                new_view,
                last_stable: self.core.low_water_mark(),
                prepared: self.prepared_proofs(),
            });
        }
        // Only the would-be primary of `new_view` collects votes and emits
        // the NewView message.
        if new_view.primary(self.core.config().n) != self.core.id() {
            return;
        }
        let quorum = self.view_change_quorum();
        let planner = self
            .planners
            .entry(new_view.0)
            .or_insert_with(|| NewViewPlanner::new(new_view, quorum));
        if let Some(plan) = planner.record_view_change(from, last_stable, prepared) {
            // Become the primary of the new view.
            self.core.enter_view(new_view);
            self.in_view_change = false;
            self.view_changes_completed += 1;
            self.next_seq = plan.next_seq.0;
            // trust-bft primaries create a fresh counter so that re-proposals
            // can be attested starting from the lowest re-proposed sequence
            // number (§8.1 Create).
            if self.style.primary_attest == PrimaryAttest::HostCounter {
                if let Some(enclave) = &self.enclave {
                    let (q, _att) = enclave.create_counter(plan.stable_seq.0);
                    self.counter_id = q;
                }
            }
            let proposals: Vec<(SeqNum, Batch, Option<Attestation>)> = plan
                .proposals
                .iter()
                .map(|(seq, batch)| {
                    let att = self.primary_attestation(*seq, batch.digest());
                    (*seq, batch.clone(), att)
                })
                .collect();
            out.broadcast(Message::NewView {
                view: new_view,
                supporting_votes: plan.supporting_votes,
                proposals: proposals.clone(),
                counter_attestation: None,
            });
            // Process the re-proposals locally as well (the new primary acts
            // on its own NewView like any other replica would).
            let self_id = self.core.id();
            for (seq, batch, attestation) in proposals {
                if !self.core.exec().is_executed(seq) {
                    self.on_preprepare(self_id, new_view, seq, batch, attestation, out);
                }
            }
        }
    }

    fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: View,
        supporting_votes: usize,
        proposals: Vec<(SeqNum, Batch, Option<Attestation>)>,
        out: &mut Outbox,
    ) {
        if view <= self.core.view() && !(view == self.core.view() && self.in_view_change) {
            return;
        }
        if from != view.primary(self.core.config().n) {
            return;
        }
        if supporting_votes < self.view_change_quorum() {
            return;
        }
        self.core.enter_view(view);
        self.in_view_change = false;
        self.view_changes_completed += 1;
        // Adopt the re-proposals: treat each like a PrePrepare in the new view.
        for (seq, batch, attestation) in proposals {
            if self.core.exec().is_executed(seq) {
                continue;
            }
            self.next_seq = self.next_seq.max(seq.0 + 1);
            self.on_preprepare(from, view, seq, batch, attestation, out);
        }
        out.cancel_timer(TimerKind::ViewChange);
    }

    // ------------------------------------------------------------------
    // Client interaction.
    // ------------------------------------------------------------------

    fn on_client_retry(&mut self, txn: Transaction, out: &mut Outbox) {
        if let Some(reply) = self.core.cached_reply(txn.client(), txn.request()) {
            out.reply(reply.clone());
            return;
        }
        if self.core.is_primary() {
            self.enqueue_batches(vec![txn], out);
        } else {
            // Forward to the primary and start a timer; if the primary never
            // proposes it, suspect it and vote for a view change.
            let primary = self.core.primary();
            out.send(primary, Message::ForwardRequest { txns: vec![txn] });
            out.set_timer(TimerKind::ViewChange, self.core.config().view_timeout_us);
        }
    }
}

impl ConsensusEngine for PbftFamilyEngine {
    fn config(&self) -> &SystemConfig {
        self.core.config()
    }

    fn id(&self) -> ReplicaId {
        self.core.id()
    }

    fn properties(&self) -> ProtocolProperties {
        ProtocolProperties::for_protocol(self.style.id)
    }

    fn on_client_request(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
        if self.core.is_primary() {
            self.enqueue_batches(txns, out);
        } else {
            let primary = self.core.primary();
            out.send(primary, Message::ForwardRequest { txns });
        }
    }

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
                ..
            } => self.on_new_view(from, view, supporting_votes, proposals, out),
            Message::ClientRetry { txn } => self.on_client_retry(txn, out),
            Message::ForwardRequest { txns } => {
                if self.core.is_primary() {
                    self.enqueue_batches(txns, out);
                }
            }
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
            TimerKind::BatchFlush => {
                if self.core.is_primary() {
                    if let Some(batch) = self.core.batcher_mut().flush() {
                        self.pending_batches.push_back(batch);
                        self.try_propose(out);
                    }
                }
            }
            TimerKind::ViewChange | TimerKind::RequestForwarded(_) => {
                self.start_view_change(out);
            }
            TimerKind::Checkpoint => {
                // Periodic checkpoints are driven off execution boundaries in
                // this implementation; the timer variant is unused here.
            }
        }
    }

    fn view(&self) -> View {
        self.core.view()
    }

    fn last_executed(&self) -> SeqNum {
        self.core.last_executed()
    }

    fn executed_txns(&self) -> u64 {
        self.core.executed_txns()
    }

    fn state_digest(&self) -> Option<Digest> {
        Some(self.core.state_digest())
    }
}

/// Helper used by this crate's protocol modules and by tests: drive a cluster
/// of engines to completion by repeatedly delivering every queued action to
/// its destination (a synchronous, loss-free "perfect network").
///
/// Returns the number of actions delivered.
pub fn run_cluster_until_quiescent(
    engines: &mut [Box<dyn ConsensusEngine>],
    mut inject: Vec<(usize, Vec<Transaction>)>,
    max_rounds: usize,
) -> usize {
    let mut delivered = 0;
    let mut queues: Vec<Vec<(ReplicaId, Message)>> = vec![Vec::new(); engines.len()];
    // Inject the client requests first.
    let mut out = Outbox::new();
    for (target, txns) in inject.drain(..) {
        engines[target].on_client_request(txns, &mut out);
        route_actions(engines[target].id(), out.drain(), &mut queues);
    }
    for _ in 0..max_rounds {
        let mut any = false;
        for i in 0..engines.len() {
            let pending = std::mem::take(&mut queues[i]);
            for (from, msg) in pending {
                any = true;
                delivered += 1;
                let mut out = Outbox::new();
                engines[i].on_message(from, msg, &mut out);
                route_actions(engines[i].id(), out.drain(), &mut queues);
            }
        }
        if !any {
            break;
        }
    }
    delivered
}

fn route_actions(from: ReplicaId, actions: Vec<Action>, queues: &mut [Vec<(ReplicaId, Message)>]) {
    for action in actions {
        match action {
            Action::Send { to, msg } => {
                if let Some(q) = queues.get_mut(to.as_usize()) {
                    q.push((from, msg));
                }
            }
            Action::Broadcast { msg } => {
                for q in queues.iter_mut() {
                    q.push((from, msg.clone()));
                }
            }
            // Replies, timers and execution notifications are not routed by
            // this synchronous helper.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn build_cluster(style: ProtocolStyle, f: usize) -> Vec<Box<dyn ConsensusEngine>> {
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
        let mut cluster = build_cluster(pbft_style(), 1);
        run_cluster_until_quiescent(&mut cluster, vec![(0, txns(4))], 100);
        for engine in &cluster {
            assert_eq!(engine.last_executed(), SeqNum(2), "replica {}", engine.id());
            assert_eq!(engine.executed_txns(), 4);
        }
    }

    #[test]
    fn minbft_cluster_commits_in_two_phases() {
        let mut cluster = build_cluster(minbft_style(), 1);
        run_cluster_until_quiescent(&mut cluster, vec![(0, txns(2))], 100);
        for engine in &cluster {
            assert_eq!(engine.last_executed(), SeqNum(1));
            assert_eq!(engine.executed_txns(), 2);
        }
    }

    #[test]
    fn requests_sent_to_backups_are_forwarded_to_the_primary() {
        let mut cluster = build_cluster(pbft_style(), 1);
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
        let mut cluster = build_cluster(style, 1);
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
        let mut cluster = build_cluster(pbft_style(), 1);
        // Deliver nothing; instead, fire the view-change timer at every
        // backup and route the resulting messages by hand.
        let n = cluster.len();
        let mut queues: Vec<Vec<(ReplicaId, Message)>> = vec![Vec::new(); n];
        for engine in cluster.iter_mut().skip(1) {
            let mut out = Outbox::new();
            engine.on_timer(TimerKind::ViewChange, &mut out);
            route_actions(engine.id(), out.drain(), &mut queues);
        }
        for _ in 0..50 {
            let mut any = false;
            for i in 0..n {
                for (from, msg) in std::mem::take(&mut queues[i]) {
                    any = true;
                    let mut out = Outbox::new();
                    cluster[i].on_message(from, msg, &mut out);
                    route_actions(cluster[i].id(), out.drain(), &mut queues);
                }
            }
            if !any {
                break;
            }
        }
        // Replica 1 is the primary of view 1; the backups have moved on.
        for engine in cluster.iter().skip(1) {
            assert_eq!(engine.view(), View(1), "replica {}", engine.id());
        }
        assert!(cluster[1].is_primary());
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
}
